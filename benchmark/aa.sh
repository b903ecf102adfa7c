#!/usr/bin/env bash
# A/A check: the whole workload set twice on one commit, runs interleaved
# (N per set, default 3). Prints both medians and quartiles of every
# end-to-end metric per workload and exits non-zero if a pair differs by
# more than the metric's bound, or an exact per-layer metric differs at all.
#
#   benchmark/aa.sh [N] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --aa "${1:-3}" --seed "${2:-1}"
