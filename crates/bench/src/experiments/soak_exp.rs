//! E27: chaos soak — the overload-robust service under open-loop load
//! with faults on.
//!
//! E22 asks "how fast is the service?"; E27 asks the operational
//! question behind ROADMAP item 2: "does it *stay a service* when tail
//! jobs, faults, and overload coincide?". The harness first calibrates
//! the service's closed-loop throughput, then replays a deterministic
//! mixed-tenant request stream **open-loop** at ~1.35x that rate —
//! arrivals do not wait for completions, exactly the regime where a
//! naive queue collapses. The mix (a fixed splitmix64 stream, so every
//! run sees the same traffic) is ~20% `Interactive` (some with hopeless
//! microsecond deadlines), ~60% `Batch`, ~20% `BestEffort`, with ~5% of
//! jobs carrying transient fault plans and a periodic wall-clock
//! **stall** fault that hangs a worker until the supervisor kills it.
//!
//! Asserted, not just tabulated:
//! - **zero lost jobs** — every submitted request gets exactly one
//!   typed terminal answer: a response through its handle, or
//!   `Busy`/`Shed` at the door;
//! - **interactive p99 stays bounded** under overload (weighted-fair
//!   dequeue is what keeps the 20% interactive stream out of the batch
//!   flood's shadow);
//! - **sheds are justified**: the hindsight audit's shed-when-feasible
//!   rate ([`hpf_obs::AdmissionAudit`]) stays under 5%;
//! - **supervision works**: at least one hung worker is killed and
//!   respawned mid-soak.
//!
//! The run is recorded through the [`RegressionGate`] as
//! `BENCH_27.json` + `bench-history.jsonl` (scale-free rate series
//! only, so a 5k CI smoke compares against a 100k baseline). Set
//! `HPF_SOAK_REQUESTS` to resize the default run.

use crate::table::Table;
use hpf_obs::{percentile_us, AdmissionAudit, BenchRecord, RegressionGate};
use hpf_service::{
    splitmix64, JobHandle, QosClass, ServiceConfig, ServiceError, SolveRequest, SolverService,
};
use hpf_sparse::{gen, CsrMatrix};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `STALL_PERIOD`-th request (offset so short runs still see
/// one) carries a wall-clock stall fault long enough to trip the
/// supervisor's hang timeout.
const STALL_PERIOD: usize = 2500;
const STALL_OFFSET: usize = 1250;
const STALL_MILLIS: u64 = 250;

/// Soak size: `HPF_SOAK_REQUESTS` if set, else the CI-smoke-sized 5000.
/// The acceptance run uses 100_000.
pub fn default_requests() -> usize {
    std::env::var("HPF_SOAK_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// E27 — chaos soak, gated against the previous `BENCH_27.json`. The
/// generous tolerance reflects that the gated series are rates under a
/// wall-clock-paced load, not simulated-clock quantities.
pub fn e27_chaos_soak(requests: usize) -> Table {
    let dir = std::env::var("HPF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    e27_with_gate(requests, &RegressionGate::new(dir).with_tolerance(50.0))
}

/// Per-class terminal tally kept by the reaper thread.
#[derive(Default)]
struct Tally {
    completed: [u64; 3],
    deadline_missed: [u64; 3],
    worker_killed: [u64; 3],
    failed_other: u64,
    /// Wall latency (queue wait + solve) of completed jobs, µs.
    latency_us: [Vec<u64>; 3],
}

/// E27 with an explicit gate (tests point this at a scratch directory).
pub fn e27_with_gate(requests: usize, gate: &RegressionGate) -> Table {
    let mut t = Table::new(
        "E27",
        format!("chaos soak: {requests} open-loop mixed-QoS requests, faults on"),
        &[
            "class",
            "submitted",
            "completed",
            "shed",
            "busy",
            "missed",
            "killed",
            "p50 ms",
            "p99 ms",
        ],
    );

    let service = SolverService::start(ServiceConfig {
        workers: 2,
        // An exact bound, so sized on purpose: a class must hold what
        // arrives while a hung worker waits out `hang_timeout` (0.1 s of
        // a 25–40k req/s stream, three fifths of it `Batch`), or the one
        // scripted stall of a short run reads as a flood of `Busy`.
        // Sustained overload fills it all the same (a 20k run answers a
        // quarter of its traffic `Busy`).
        queue_capacity: 4096,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        supervisor_poll: Duration::from_millis(10),
        // Kills feed the breaker; keep it from tripping on the shared
        // structures so breaker refusals don't dominate the soak.
        breaker_threshold: 50,
        ..ServiceConfig::default()
    });
    // Three structures cover the repo's matrix families; small enough
    // that a 100k-request soak stays in seconds, irregular enough that
    // plans and predictions differ per structure.
    let mats: [Arc<CsrMatrix>; 3] = [
        Arc::new(gen::banded_spd(48, 2, 27)),
        Arc::new(gen::power_law_spd(64, 10, 0.9, 27)),
        Arc::new(gen::poisson_2d(8, 8)),
    ];
    let rhs: Vec<Vec<f64>> = mats
        .iter()
        .map(|a| gen::rhs_for_known_solution(a).0)
        .collect();

    // ------------------------------------------------------------------
    // Phase 1 — closed-loop calibration: measure sustainable throughput
    // (and warm the plan cache + admission EWMAs) with chunked bursts.
    let calib_jobs = (requests / 10).clamp(96, 512);
    let calib_started = Instant::now();
    let mut done = 0usize;
    while done < calib_jobs {
        let chunk = (calib_jobs - done).min(24);
        let handles: Vec<JobHandle> = (0..chunk)
            .map(|k| {
                let s = (done + k) % 3;
                service
                    .submit(SolveRequest::with_rhs_set(
                        mats[s].clone(),
                        vec![rhs[s].clone()],
                    ))
                    .expect("calibration chunk fits the queue")
            })
            .collect();
        for h in handles {
            assert!(h.wait().expect("calibration solve").stats[0].converged);
        }
        done += chunk;
    }
    let rate = calib_jobs as f64 / calib_started.elapsed().as_secs_f64().max(1e-9);
    // Open-loop arrival rate: 1.35x measured capacity, so queues must
    // fill and the overload answers (Busy, Shed) must engage.
    let interarrival = Duration::from_secs_f64(1.0 / (rate * 1.35));

    // ------------------------------------------------------------------
    // Phase 2 — the soak. A reaper thread consumes handles FIFO so the
    // submit loop never blocks on completions (open loop).
    let audit = Arc::new(AdmissionAudit::new());
    let (handle_tx, handle_rx) = std::sync::mpsc::channel::<(QosClass, JobHandle)>();
    let reaper = {
        let audit = audit.clone();
        std::thread::spawn(move || {
            let mut tally = Tally::default();
            for (class, h) in handle_rx {
                let i = class.index();
                match h.wait() {
                    Ok(resp) => {
                        let wall = resp.wait_time + resp.solve_time;
                        audit.record_completed(class, wall);
                        tally.latency_us[i].push(wall.as_micros() as u64);
                        tally.completed[i] += 1;
                    }
                    Err(ServiceError::DeadlineExceeded { .. }) => tally.deadline_missed[i] += 1,
                    Err(ServiceError::WorkerKilled { .. }) => tally.worker_killed[i] += 1,
                    Err(_) => tally.failed_other += 1,
                }
            }
            tally
        })
    };

    let mut submitted = [0u64; 3];
    let mut shed = [0u64; 3];
    let mut busy = [0u64; 3];
    let mut stalls_submitted = 0u64;
    let soak_started = Instant::now();
    for i in 0..requests {
        let h = splitmix64(i as u64);
        let s = (h % 3) as usize;
        // The scripted stall rides a plain batch job (no deadline) so
        // neither the admission controller nor a full queue can turn
        // the hang scenario away at the door.
        let is_stall = i % STALL_PERIOD == STALL_OFFSET;
        let class = if is_stall {
            QosClass::Batch
        } else {
            match (h >> 8) & 0xFF {
                0..=50 => QosClass::Interactive,
                51..=204 => QosClass::Batch,
                _ => QosClass::BestEffort,
            }
        };
        let build = |mats: &[Arc<CsrMatrix>; 3], rhs: &[Vec<f64>]| {
            let mut req = SolveRequest::with_rhs_set(mats[s].clone(), vec![rhs[s].clone()])
                .qos(class)
                .tenant(class.name());
            if class == QosClass::Interactive {
                // Mostly a generous 2 s budget; ~10% hopeless
                // microsecond deadlines a calibrated controller sheds.
                req = req.deadline(if (h >> 16) & 0xFF < 26 {
                    Duration::from_micros(20)
                } else {
                    Duration::from_secs(2)
                });
            }
            if is_stall {
                // The hang: a worker sleeps through the supervisor's
                // timeout and is killed and respawned mid-soak.
                req = req.fault_plan(hpf_machine::FaultPlan::new().with_stall(30, 0, STALL_MILLIS));
            } else if (h >> 24) & 0xFF < 13 {
                // ~5% transient chaos: a crash plus a dropped message
                // for the protected solver to ride out.
                let op = 20 + ((h >> 32) % 40) as usize;
                req = req.fault_plan(
                    hpf_machine::FaultPlan::new()
                        .with_crash(op, ((h >> 40) % 4) as usize)
                        .with_message_drop(op + 15, ((h >> 44) % 4) as usize),
                );
            }
            req
        };

        // Open loop: pace arrivals off the wall clock, never off
        // completions.
        let due = soak_started + interarrival.mul_f64(i as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        submitted[class.index()] += 1;
        stalls_submitted += u64::from(is_stall);
        let mut attempts = 0u32;
        loop {
            match service.submit(build(&mats, &rhs)) {
                Ok(handle) => {
                    handle_tx
                        .send((class, handle))
                        .expect("reaper outlives the submit loop");
                    break;
                }
                Err(ServiceError::Shed { predicted, budget }) => {
                    audit.record_shed(class, predicted, budget);
                    shed[class.index()] += 1;
                    break;
                }
                Err(ServiceError::Busy { .. }) if is_stall => {
                    // Only the scripted hang retries: it must land for
                    // the supervision assertions to be meaningful.
                    attempts += 1;
                    assert!(attempts < 10_000, "stall request starved by Busy");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(ServiceError::Busy { .. }) => {
                    busy[class.index()] += 1;
                    break;
                }
                Err(e) => panic!("unexpected submit error at request {i}: {e}"),
            }
        }
    }
    drop(handle_tx);
    let tally = reaper.join().expect("reaper thread");
    // A stall near the end of the stream can still be mid kill/respawn
    // when the last handle answers; let the supervisor finish so the
    // restart is visible in the shutdown snapshot.
    if stalls_submitted > 0 {
        let wait_started = Instant::now();
        while service.metrics().worker_restarts < stalls_submitted
            && wait_started.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let m = service.shutdown();

    // ------------------------------------------------------------------
    // The robustness ledger. Zero lost jobs: every accepted handle was
    // reaped with exactly one terminal answer, and the service's own
    // books balance.
    let accepted: u64 =
        submitted.iter().sum::<u64>() - shed.iter().sum::<u64>() - busy.iter().sum::<u64>();
    let reaped: u64 = tally.completed.iter().sum::<u64>()
        + tally.deadline_missed.iter().sum::<u64>()
        + tally.worker_killed.iter().sum::<u64>()
        + tally.failed_other;
    assert_eq!(
        reaped, accepted,
        "every accepted job must answer exactly once"
    );
    assert_eq!(
        m.accepted,
        accepted + calib_jobs as u64,
        "service-side accept counter must match the generator's"
    );
    assert_eq!(m.shed_total, shed.iter().sum::<u64>());
    assert_eq!(
        m.in_flight, 0,
        "nothing may remain in flight after shutdown"
    );
    assert_eq!(
        m.completed + m.failed,
        m.accepted,
        "service ledger: accepted = completed + failed"
    );
    assert!(m.faults_injected > 0, "the chaos must actually fire");

    let feasible_rate = audit.shed_when_feasible_rate();
    assert!(
        feasible_rate < 0.05,
        "shed-when-feasible rate {feasible_rate:.4} breaches the 5% band"
    );

    let p99_us = |class: usize| -> Option<u64> {
        let lat = &tally.latency_us[class];
        (!lat.is_empty()).then(|| percentile_us(lat, 0.99))
    };
    if requests >= 1000 {
        // Large enough for every scripted event to have occurred.
        assert!(shed.iter().sum::<u64>() >= 1, "no shed ever fired");
        assert!(
            m.supervisor_kills >= 1 && m.worker_restarts >= 1,
            "the stall must kill and respawn a worker (kills {}, restarts {})",
            m.supervisor_kills,
            m.worker_restarts
        );
        let p99 = p99_us(0).expect("interactive jobs completed");
        // The E27 band: interactive p99 stays an order of magnitude
        // under its 2 s budget even at 1.35x overload with stalls.
        assert!(
            p99 < 1_000_000,
            "interactive p99 {p99} µs breaches the 1 s soak band"
        );
        let refused: u64 = shed.iter().sum::<u64>() + busy.iter().sum::<u64>();
        assert!(
            refused >= 1,
            "1.35x overload must engage an overload answer"
        );
        assert!(
            refused * 10 < requests as u64 * 4,
            "overload answers ({refused}) must stay under 40% of {requests}"
        );
    }

    for class in QosClass::ALL {
        let i = class.index();
        let (p50, p99) = match (&tally.latency_us[i], p99_us(i)) {
            (lat, Some(p99)) => (
                format!("{:.2}", percentile_us(lat, 0.50) as f64 / 1e3),
                format!("{:.2}", p99 as f64 / 1e3),
            ),
            _ => ("-".to_string(), "-".to_string()),
        };
        t.row(vec![
            class.name().to_string(),
            submitted[i].to_string(),
            tally.completed[i].to_string(),
            shed[i].to_string(),
            busy[i].to_string(),
            tally.deadline_missed[i].to_string(),
            tally.worker_killed[i].to_string(),
            p50,
            p99,
        ]);
    }

    // Gate series are scale-free rates (percent of submitted), so a 5k
    // smoke run compares meaningfully against a 100k baseline. Lower is
    // better for every one of them.
    let total = requests as f64;
    let pct = |n: u64| n as f64 / total * 100.0;
    let mut record = BenchRecord::new(27, "e27-chaos-soak");
    record.push("soak/lost_jobs", (accepted - reaped) as f64);
    record.push("soak/failed_other_pct", pct(tally.failed_other));
    record.push(
        "soak/deadline_miss_pct",
        pct(tally.deadline_missed.iter().sum()),
    );
    record.push("soak/shed_when_feasible_pct", feasible_rate * 100.0);
    record.push(
        "soak/incomplete_pct",
        pct(accepted - tally.completed.iter().sum::<u64>()),
    );
    let outcome = gate
        .check_and_record(&record)
        .unwrap_or_else(|e| panic!("E27 bench gate: {e}"));

    t.note(format!(
        "open loop at {:.0} req/s (1.35x calibrated {:.0} solves/s); {} accepted, {} shed, {} busy",
        1.0 / interarrival.as_secs_f64(),
        rate,
        accepted,
        shed.iter().sum::<u64>(),
        busy.iter().sum::<u64>(),
    ));
    t.note(format!(
        "supervisor: {} kills, {} restarts; faults injected: {}; shed-when-feasible {:.2}%",
        m.supervisor_kills,
        m.worker_restarts,
        m.faults_injected,
        feasible_rate * 100.0
    ));
    t.note(if outcome.compared {
        format!(
            "regression gate: PASS vs previous {} ({} series compared, tolerance {}%)",
            outcome.baseline_path.display(),
            outcome.series_compared,
            gate.max_regression_pct
        )
    } else {
        format!(
            "regression gate: first run, baseline written to {}",
            outcome.baseline_path.display()
        )
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e27_soak_smoke_holds_every_band() {
        let dir = std::env::temp_dir().join(format!("hpf-e27-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gate = RegressionGate::new(&dir).with_tolerance(50.0);
        // Above the 1000-request threshold so the stall, the sheds, and
        // the p99 band are all asserted inside the harness.
        let t = e27_with_gate(1500, &gate);
        assert_eq!(t.rows.len(), 3);
        assert!(gate.baseline_path(27).exists());
        assert!(gate.history_path().exists());
        assert!(t.notes.iter().any(|n| n.contains("kills")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
