//! Bench regression gate: a persistent, schema-versioned trajectory of
//! benchmark results with a pass/fail comparison against the previous
//! run.
//!
//! Every gated run produces a [`BenchRecord`]: a named set of scalar
//! series (simulated seconds, drift percentages — anything where
//! *lower is better*). [`RegressionGate::check_and_record`] compares
//! the fresh record against the committed `BENCH_<n>.json` from the
//! previous run, fails with a typed [`GateError::Regression`] when any
//! series regressed by more than the configured percentage, then
//! rewrites `BENCH_<n>.json` and appends the record to the rolling
//! `bench-history.jsonl` — so the repository itself carries the
//! performance trajectory from PR to PR and CI can refuse changes that
//! walk it backwards.
//!
//! Records hold *simulated* quantities only (the machine's cost-model
//! clock), never wall time, so the gate is deterministic across hosts.

use crate::json::Obj;
use std::fmt;
use std::path::PathBuf;

/// Version stamp written into every record; bump on layout changes so
/// an old CI baseline fails loudly instead of comparing garbage.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One benchmark run: an ordered set of named scalar series values.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    pub schema_version: u32,
    /// Bench number: record `n` persists as `BENCH_<n>.json`.
    pub bench: u32,
    /// Human name of the benchmark (e.g. `"e25-drift"`).
    pub name: String,
    /// `(series name, value)` pairs; lower is better for every series.
    pub series: Vec<(String, f64)>,
}

impl BenchRecord {
    pub fn new(bench: u32, name: impl Into<String>) -> Self {
        BenchRecord {
            schema_version: BENCH_SCHEMA_VERSION,
            bench,
            name: name.into(),
            series: Vec::new(),
        }
    }

    /// Append one series value. Series names must be unique; lower is
    /// better by contract.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.series.push((name.into(), value));
    }

    /// Look up a series value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Render as one JSON object (single line, suitable for both the
    /// `BENCH_<n>.json` file and a `bench-history.jsonl` row).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        {
            let mut o = Obj::new(&mut out);
            o.u64("schema_version", u64::from(self.schema_version))
                .u64("bench", u64::from(self.bench))
                .str("name", &self.name);
            let mut series = o.arr("series");
            for (name, value) in &self.series {
                series.obj().str("name", name).f64("value", *value);
            }
        }
        out
    }

    /// Parse a record back from [`Self::to_json`] output. Rejects
    /// malformed JSON and schema mismatches with typed errors.
    pub fn from_json(text: &str) -> Result<BenchRecord, GateError> {
        let doc =
            crate::json::parse(text).map_err(|e| GateError::Parse(format!("invalid JSON: {e}")))?;
        let small = |key: &str| -> Result<u32, GateError> {
            let n = doc.u64_of(key).map_err(GateError::Parse)?;
            u32::try_from(n).map_err(|_| GateError::Parse(format!("{key} {n} out of range")))
        };
        let schema_version = small("schema_version")?;
        if schema_version != BENCH_SCHEMA_VERSION {
            return Err(GateError::SchemaMismatch {
                found: schema_version,
                expected: BENCH_SCHEMA_VERSION,
            });
        }
        let series = doc.items_of("series").map_err(GateError::Parse)?.iter();
        Ok(BenchRecord {
            schema_version,
            bench: small("bench")?,
            name: doc.str_of("name").map_err(GateError::Parse)?.to_string(),
            series: series
                .map(|s| Ok((s.str_of("name")?.to_string(), s.f64_of("value")?)))
                .collect::<Result<_, String>>()
                .map_err(GateError::Parse)?,
        })
    }
}

/// One series that regressed past the gate's threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub series: String,
    pub previous: f64,
    pub current: f64,
    /// Regression in percent (positive = got worse).
    pub pct: f64,
}

/// Why a gated bench run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// Reading or writing a bench file failed.
    Io(String),
    /// A bench file existed but could not be parsed.
    Parse(String),
    /// The baseline was written by an incompatible schema.
    SchemaMismatch { found: u32, expected: u32 },
    /// At least one series regressed past the threshold.
    Regression { violations: Vec<Violation> },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Io(e) => write!(f, "bench gate I/O error: {e}"),
            GateError::Parse(e) => write!(f, "bench record parse error: {e}"),
            GateError::SchemaMismatch { found, expected } => write!(
                f,
                "bench schema mismatch: baseline is v{found}, this binary writes v{expected}"
            ),
            GateError::Regression { violations } => {
                write!(f, "bench regression gate failed:")?;
                for v in violations {
                    write!(
                        f,
                        " [{} {:.6e} -> {:.6e} (+{:.1}%)]",
                        v.series, v.previous, v.current, v.pct
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GateError {}

/// What a successful gate pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// False on the first run (no baseline existed yet).
    pub compared: bool,
    /// Series present in both the baseline and the fresh record.
    pub series_compared: usize,
    /// Where the new baseline was written.
    pub baseline_path: PathBuf,
}

/// The regression gate: compares a fresh [`BenchRecord`] against the
/// persisted baseline in `dir` and maintains the trajectory files.
#[derive(Debug, Clone)]
pub struct RegressionGate {
    pub dir: PathBuf,
    /// Fail when a series grows by more than this percentage over the
    /// baseline.
    pub max_regression_pct: f64,
}

impl RegressionGate {
    /// Gate rooted at `dir` with the default 10% tolerance.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RegressionGate {
            dir: dir.into(),
            max_regression_pct: 10.0,
        }
    }

    pub fn with_tolerance(mut self, pct: f64) -> Self {
        self.max_regression_pct = pct;
        self
    }

    /// Path of the baseline file for bench `n`.
    pub fn baseline_path(&self, bench: u32) -> PathBuf {
        self.dir.join(format!("BENCH_{bench}.json"))
    }

    /// Path of the rolling history journal.
    pub fn history_path(&self) -> PathBuf {
        self.dir.join("bench-history.jsonl")
    }

    /// The persisted baseline of bench `bench`, if one exists.
    pub fn baseline(&self, bench: u32) -> Result<Option<BenchRecord>, GateError> {
        let path = self.baseline_path(bench);
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| GateError::Io(format!("{}: {e}", path.display())))?;
        BenchRecord::from_json(&text).map(Some)
    }

    /// Compare `record` against the previous baseline (when one
    /// exists), then persist `record` as the new baseline and append it
    /// to the history journal.
    ///
    /// On regression the error is returned *before* the baseline is
    /// rewritten, so a failing run leaves the old baseline in place and
    /// re-running the comparison stays meaningful.
    pub fn check_and_record(&self, record: &BenchRecord) -> Result<GateOutcome, GateError> {
        let outcome = self.check(record)?;
        self.record(record)?;
        Ok(outcome)
    }

    /// The comparison half of [`RegressionGate::check_and_record`]:
    /// judge every series of `record` that the baseline also has, and
    /// write nothing. A run whose record carries series a percentage
    /// cannot judge (the difference of two wall times, near zero and as
    /// large as its own noise) checks the rest, adds those, and then
    /// calls [`RegressionGate::record`].
    pub fn check(&self, record: &BenchRecord) -> Result<GateOutcome, GateError> {
        let baseline_path = self.baseline_path(record.bench);
        let mut compared = false;
        let mut series_compared = 0;
        if let Some(baseline) = self.baseline(record.bench)? {
            compared = true;
            let mut violations = Vec::new();
            for (name, current) in &record.series {
                let Some(previous) = baseline.get(name) else {
                    continue;
                };
                series_compared += 1;
                // Series too small to compare meaningfully are skipped;
                // percentages on ~0 baselines amplify noise.
                if previous.abs() < 1e-12 {
                    continue;
                }
                let pct = (current - previous) / previous * 100.0;
                if pct > self.max_regression_pct {
                    violations.push(Violation {
                        series: name.clone(),
                        previous,
                        current: *current,
                        pct,
                    });
                }
            }
            if !violations.is_empty() {
                return Err(GateError::Regression { violations });
            }
        }
        Ok(GateOutcome {
            compared,
            series_compared,
            baseline_path,
        })
    }

    /// The persisting half of [`RegressionGate::check_and_record`]:
    /// write `record` as the new baseline and append it to the history
    /// journal.
    pub fn record(&self, record: &BenchRecord) -> Result<(), GateError> {
        let baseline_path = self.baseline_path(record.bench);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| GateError::Io(format!("{}: {e}", self.dir.display())))?;
        std::fs::write(&baseline_path, format!("{}\n", record.to_json()))
            .map_err(|e| GateError::Io(format!("{}: {e}", baseline_path.display())))?;
        let history = self.history_path();
        let mut journal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .map_err(|e| GateError::Io(format!("{}: {e}", history.display())))?;
        use std::io::Write as _;
        writeln!(journal, "{}", record.to_json())
            .map_err(|e| GateError::Io(format!("{}: {e}", history.display())))
    }
}

/// Render a side-by-side regression table for two bench records (the
/// `bench-diff` CLI). Returns the table and whether any shared series
/// regressed past `max_regression_pct`.
pub fn render_diff(
    prev: &BenchRecord,
    cur: &BenchRecord,
    max_regression_pct: f64,
) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "bench diff: {} (BENCH_{}) -> {} (BENCH_{})\n{:<28} {:>14} {:>14} {:>9}\n",
        prev.name, prev.bench, cur.name, cur.bench, "series", "previous", "current", "delta"
    ));
    for (name, current) in &cur.series {
        match prev.get(name) {
            Some(previous) if previous.abs() > 1e-12 => {
                let pct = (current - previous) / previous * 100.0;
                let mark = if pct > max_regression_pct {
                    regressed = true;
                    " REGRESSED"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "{name:<28} {previous:>14.6e} {current:>14.6e} {pct:>+8.1}%{mark}\n"
                ));
            }
            Some(previous) => {
                out.push_str(&format!(
                    "{name:<28} {previous:>14.6e} {current:>14.6e} {:>9}\n",
                    "~0 base"
                ));
            }
            None => {
                out.push_str(&format!(
                    "{name:<28} {:>14} {current:>14.6e} {:>9}\n",
                    "(new)", ""
                ));
            }
        }
    }
    for (name, previous) in &prev.series {
        if cur.get(name).is_none() {
            out.push_str(&format!(
                "{name:<28} {previous:>14.6e} {:>14} {:>9}\n",
                "(gone)", ""
            ));
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpf-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(bench: u32, solve: f64, drift: f64) -> BenchRecord {
        let mut r = BenchRecord::new(bench, "e25-drift");
        r.push("rowwise/solve_seconds", solve);
        r.push("rowwise/max_drift_pct", drift);
        r
    }

    #[test]
    fn record_json_round_trips_and_validates() {
        let r = record(25, 0.0123, 1.5);
        let json = r.to_json();
        crate::json::validate(&json).unwrap();
        assert_eq!(BenchRecord::from_json(&json).unwrap(), r);
    }

    #[test]
    fn parser_rejects_garbage_and_wrong_schema() {
        assert!(matches!(
            BenchRecord::from_json("nope"),
            Err(GateError::Parse(_))
        ));
        let wrong = r#"{"schema_version":99,"bench":1,"name":"x","series":[]}"#;
        assert!(matches!(
            BenchRecord::from_json(wrong),
            Err(GateError::SchemaMismatch {
                found: 99,
                expected: BENCH_SCHEMA_VERSION
            })
        ));
    }

    #[test]
    fn first_run_writes_baseline_and_history() {
        let dir = temp_dir("first");
        let gate = RegressionGate::new(&dir);
        let out = gate.check_and_record(&record(25, 0.01, 1.0)).unwrap();
        assert!(!out.compared);
        assert!(gate.baseline_path(25).exists());
        let history = std::fs::read_to_string(gate.history_path()).unwrap();
        assert_eq!(history.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn improvement_passes_and_extends_history() {
        let dir = temp_dir("improve");
        let gate = RegressionGate::new(&dir);
        gate.check_and_record(&record(25, 0.010, 2.0)).unwrap();
        let out = gate.check_and_record(&record(25, 0.009, 1.5)).unwrap();
        assert!(out.compared);
        assert_eq!(out.series_compared, 2);
        let history = std::fs::read_to_string(gate.history_path()).unwrap();
        assert_eq!(history.lines().count(), 2);
        // Baseline now holds the newer run.
        let base =
            BenchRecord::from_json(&std::fs::read_to_string(gate.baseline_path(25)).unwrap())
                .unwrap();
        assert_eq!(base.get("rowwise/solve_seconds"), Some(0.009));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn regression_fails_typed_and_keeps_the_old_baseline() {
        let dir = temp_dir("regress");
        let gate = RegressionGate::new(&dir).with_tolerance(10.0);
        gate.check_and_record(&record(25, 0.010, 1.0)).unwrap();
        let err = gate.check_and_record(&record(25, 0.013, 1.0)).unwrap_err();
        let GateError::Regression { violations } = &err else {
            panic!("expected Regression, got {err:?}");
        };
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].series, "rowwise/solve_seconds");
        assert!((violations[0].pct - 30.0).abs() < 1e-9);
        assert!(err.to_string().contains("regression gate failed"));
        // Baseline untouched; history has only the passing run.
        let base =
            BenchRecord::from_json(&std::fs::read_to_string(gate.baseline_path(25)).unwrap())
                .unwrap();
        assert_eq!(base.get("rowwise/solve_seconds"), Some(0.010));
        assert_eq!(
            std::fs::read_to_string(gate.history_path())
                .unwrap()
                .lines()
                .count(),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_baselines_and_new_series_do_not_trip_the_gate() {
        let dir = temp_dir("small");
        let gate = RegressionGate::new(&dir);
        let mut first = BenchRecord::new(7, "tiny");
        first.push("zero_series", 0.0);
        gate.check_and_record(&first).unwrap();
        let mut second = BenchRecord::new(7, "tiny");
        second.push("zero_series", 5.0); // huge % over ~0 baseline: skipped
        second.push("brand_new", 1.0); // not in baseline: skipped
        gate.check_and_record(&second).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_table_marks_regressions_new_and_gone_series() {
        let mut prev = record(25, 0.010, 1.0);
        prev.push("colwise/only_old", 3.0);
        let mut cur = record(25, 0.013, 0.9);
        cur.push("colwise/only_new", 2.0);
        let (table, regressed) = render_diff(&prev, &cur, 10.0);
        assert!(regressed);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("(new)"));
        assert!(table.contains("(gone)"));
        let (_, ok) = render_diff(&prev, &prev.clone(), 10.0);
        assert!(!ok);
    }
}
