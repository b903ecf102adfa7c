//! The flight recorder behind a real service: what ends a job hands the
//! recorder that job's evidence, once, and nothing else reaches it.
//!
//! Each test here failed on the commit before the hand-over: refused
//! requests left a lifecycle tail in the recorder for good, two jobs
//! given one trace id had their tails merged into one post-mortem, the
//! shutdown drain emitted no `Completed`. Interleavings are forced with
//! a gate the test holds, never with a sleep.

use hpf_machine::{EventSink, FaultPlan};
use hpf_obs::{FlightRecorder, FlightRecorderConfig, Trigger};
use hpf_service::{
    JobHandle, QosClass, ServiceConfig, ServiceError, ServiceEvent, ServiceEventSink, SolveRequest,
    SolverService,
};
use hpf_solvers::RecoveryConfig;
use hpf_sparse::gen;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A machine sink that parks the thread recording the first event whose
/// span path holds `marker`, until the test lets go. Returns the sink,
/// the channel that says the worker is parked, and the one that
/// releases it.
fn gate(marker: Arc<Mutex<String>>) -> (EventSink, Receiver<()>, Sender<()>) {
    let (parked_tx, parked_rx) = channel::<()>();
    let (release_tx, release_rx) = channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let armed = std::sync::atomic::AtomicBool::new(true);
    let sink = EventSink::new(move |event| {
        let marker = marker.lock().unwrap();
        if !marker.is_empty()
            && event.span.contains(marker.as_str())
            && armed.swap(false, Ordering::SeqCst)
        {
            drop(marker);
            parked_tx.send(()).expect("the test waits for this");
            let release = release_rx.lock().unwrap();
            release.recv().expect("the test lets go");
        }
    });
    (sink, parked_rx, release_tx)
}

/// An event sink counting the `Completed` events it sees by outcome.
fn completions() -> (ServiceEventSink, Arc<Mutex<Vec<&'static str>>>) {
    let seen: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let tap = seen.clone();
    let sink = ServiceEventSink::new(move |event| {
        if let ServiceEvent::Completed { outcome, .. } = event {
            tap.lock().unwrap().push(outcome);
        }
    });
    (sink, seen)
}

fn outcome_of(handle: JobHandle) -> &'static str {
    match handle.wait() {
        Ok(_) => "ok",
        Err(e) => e.outcome(),
    }
}

/// A thousand refusals at the door, a thousand clean jobs, and two
/// concurrent jobs a caller gave one trace id, one of which fails: the
/// recorder ends up holding that one post-mortem and nothing besides,
/// and the post-mortem holds the failing job's evidence alone.
#[test]
fn refusals_clean_jobs_and_a_shared_trace_id_leave_one_dump_and_no_state() {
    let marker: Arc<Mutex<String>> = Arc::default();
    let (gate, parked_rx, release_tx) = gate(marker.clone());
    let fr = FlightRecorder::new(FlightRecorderConfig::default());
    let mut cfg = ServiceConfig {
        workers: 2,
        np: 4,
        max_attempts: 1,
        // Zero headroom: the first detected fault is terminal.
        recovery: Some(RecoveryConfig { max_rollbacks: 0 }),
        // A worker parked inside an operation is not hung.
        hang_timeout: Duration::from_secs(3600),
        machine_sink: Some(gate),
        ..ServiceConfig::default()
    };
    fr.install(&mut cfg);
    let service = SolverService::start(cfg);
    let a = Arc::new(gen::tridiagonal(32, 4.0, -1.0));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    // Clean jobs first: they also calibrate the admission controller.
    for _ in 0..125 {
        let burst: Vec<JobHandle> = (0..8)
            .map(|_| {
                service
                    .submit(SolveRequest::new(a.clone(), b.clone()))
                    .unwrap()
            })
            .collect();
        for handle in burst {
            assert_eq!(outcome_of(handle), "ok");
        }
    }
    // An impossible deadline is refused at the door, a thousand times.
    for _ in 0..1000 {
        let refused = service
            .submit(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_nanos(1)));
        assert!(
            matches!(refused, Err(ServiceError::Shed { .. })),
            "{refused:?}"
        );
    }
    assert_eq!((fr.dumps(), fr.retained_traces()), (0, 0));
    assert!(fr.machine_events() > 0);

    // Two jobs under one id. The clean one goes first and is parked
    // inside its solve; the failing one runs to its end on the other
    // worker meanwhile.
    let poisson = Arc::new(gen::poisson_2d(12, 12));
    let (rhs, _x) = gen::rhs_for_known_solution(&poisson);
    let shared = SolveRequest::new(poisson, rhs).trace(0xd0b1e);
    let clean = {
        let mut marker = marker.lock().unwrap();
        let handle = service.submit(shared.clone()).unwrap();
        *marker = format!("/job={}/", handle.job_id);
        handle
    };
    parked_rx.recv().expect("the clean job parks in its solve");
    let failing = service
        .submit(shared.fault_plan(FaultPlan::new().with_crash(30, 1)))
        .unwrap();
    let failing_id = failing.job_id;
    assert_eq!(outcome_of(failing), "recovery-exhausted");
    release_tx.send(()).unwrap();
    assert_eq!(outcome_of(clean), "ok");
    service.shutdown();

    assert_eq!(fr.dumps(), 1);
    assert_eq!(fr.retained_traces(), 1, "the dumped id, nothing else");
    let pm = fr
        .get(&format!("{:016x}", 0xd0b1e))
        .expect("the failing job's dump");
    assert_eq!(pm.trigger, Trigger::RecoveryExhausted);
    let kinds: Vec<&str> = pm.service_tail.iter().map(ServiceEvent::kind).collect();
    assert_eq!(kinds, ["admitted", "completed"], "one job's lifecycle");
    assert!(!pm.machine_tail.is_empty());
    let own = format!("/job={failing_id}/");
    for record in &pm.machine_tail {
        assert!(record.span.contains(&own), "{} is not its own", record.span);
    }
    assert!(
        pm.machine_tail
            .iter()
            .any(|r| r.label.starts_with("fault:crash")),
        "the crash is in the tail"
    );
    assert!(pm.residual_tail.is_some());
}

/// Shutdown answers what is still queued: each drained handle gets its
/// one `Completed`, with outcome `shutdown`, and none of them dumps.
#[test]
fn the_shutdown_drain_completes_every_queued_job_and_dumps_none() {
    let marker = Arc::new(Mutex::new("/solve".to_string()));
    let (gate, parked_rx, release_tx) = gate(marker);
    let (events, completed) = completions();
    let fr = FlightRecorder::new(FlightRecorderConfig::default());
    let mut cfg = ServiceConfig {
        workers: 1,
        np: 4,
        batching_enabled: false,
        // The worker parked inside an operation is not hung.
        hang_timeout: Duration::from_secs(3600),
        machine_sink: Some(gate),
        event_sink: Some(events),
        ..ServiceConfig::default()
    };
    fr.install(&mut cfg);
    let service = SolverService::start(cfg);
    let a = Arc::new(gen::tridiagonal(32, 4.0, -1.0));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let request = |qos| SolveRequest::new(a.clone(), b.clone()).qos(qos);

    let blocker = service.submit(request(QosClass::Batch)).unwrap();
    parked_rx
        .recv()
        .expect("the one worker parks in the blocker");
    let queued: Vec<JobHandle> = (0..9)
        .map(|i| service.submit(request(QosClass::ALL[i % 3])).unwrap())
        .collect();
    // `shutdown` joins the worker, which is parked: the drain comes
    // first, so its answers are what lets the test release the gate.
    let shutdown = std::thread::spawn(move || service.shutdown());
    for handle in queued {
        assert_eq!(outcome_of(handle), "shutdown");
    }
    release_tx.send(()).unwrap();
    assert_eq!(outcome_of(blocker), "ok");
    let m = shutdown.join().unwrap();

    let mut completed = completed.lock().unwrap().clone();
    completed.sort_unstable();
    assert_eq!(completed, [vec!["ok"], vec!["shutdown"; 9]].concat());
    assert_eq!((m.accepted, m.completed, m.failed), (10, 1, 9));
    assert_eq!((m.in_flight, m.queue_depth), (0, 0));
    assert!(m.solve_outcomes.iter().all(|o| o.failed == 0), "{m:?}");
    assert_eq!((fr.dumps(), fr.retained_traces()), (0, 0));
}

/// A 200-request mixed stream, one request in twenty under a crash plan,
/// retries on, and one job stalled past the hang timeout: every accepted
/// handle is answered and completes once, every bad answer dumps once,
/// and the killed job's post-mortem carries its own evidence in order.
#[test]
fn every_answer_completes_once_and_every_bad_answer_dumps_once() {
    let (events, completed) = completions();
    let fr = FlightRecorder::new(FlightRecorderConfig::default());
    let dumped = Arc::new(AtomicU64::new(0));
    let count = dumped.clone();
    fr.set_on_dump(move |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    let mut cfg = ServiceConfig {
        workers: 2,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        // The stream hammers four structures; injected faults must not
        // turn into refusals.
        breaker_threshold: 1000,
        event_sink: Some(events),
        ..ServiceConfig::default()
    };
    fr.install(&mut cfg);
    let service = SolverService::start(cfg);
    let pool: Vec<Arc<hpf_sparse::CsrMatrix>> = vec![
        Arc::new(gen::banded_spd(96, 3, 1)),
        Arc::new(gen::poisson_2d(10, 10)),
        Arc::new(gen::power_law_spd(96, 8, 0.9, 2)),
        Arc::new(gen::random_spd(64, 4, 3)),
    ];
    const STALLED: u64 = 0x57a11;
    let mut outcomes: Vec<&'static str> = Vec::new();
    for burst in 0..25u64 {
        let handles: Vec<JobHandle> = (0..8u64)
            .map(|k| {
                let i = burst * 8 + k;
                let a = &pool[(i % 4) as usize];
                let (b, _x) = gen::rhs_for_known_solution(a);
                let mut request = SolveRequest::new(a.clone(), b)
                    .qos(QosClass::ALL[(k % 3) as usize])
                    .trace(i + 1);
                if i == 100 {
                    // Longer than the hang timeout: the job is killed
                    // at the first clock reading after the stall, some
                    // iterations in.
                    request = request
                        .trace(STALLED)
                        .fault_plan(FaultPlan::new().with_stall(40, 2, 250));
                } else if i % 20 == 7 {
                    let op = 10 + (i % 30) as usize;
                    request = request.fault_plan(FaultPlan::new().with_crash(op, (i % 4) as usize));
                }
                service
                    .submit(request)
                    .expect("a burst of 8 fits the queue")
            })
            .collect();
        outcomes.extend(handles.into_iter().map(outcome_of));
    }
    let m = service.shutdown();

    assert_eq!(outcomes.len(), 200);
    assert_eq!(m.accepted, 200);
    assert_eq!(completed.lock().unwrap().len(), 200);
    let by_outcome = |list: &[&'static str]| {
        let mut sorted = list.to_vec();
        sorted.sort_unstable();
        sorted
    };
    assert_eq!(
        by_outcome(&completed.lock().unwrap()),
        by_outcome(&outcomes),
        "each handle's answer is the outcome its Completed carried"
    );
    let bad = outcomes
        .iter()
        .filter(|o| Trigger::from_outcome(o).is_some())
        .count() as u64;
    assert!(bad >= 1, "{outcomes:?}");
    assert_eq!(outcomes[100], "worker-killed");
    assert_eq!(fr.dumps(), bad);
    assert_eq!(dumped.load(Ordering::Relaxed), bad);
    assert_eq!(fr.retained_traces() as u64, bad);
    assert!(
        m.retries + m.rollbacks > 0,
        "the crash plans were felt: {m:?}"
    );

    let pm = fr
        .get(&format!("{STALLED:016x}"))
        .expect("the killed job's dump");
    assert_eq!(pm.trigger, Trigger::WorkerKilled);
    assert_eq!(pm.top_verdict().name(), "fault-stall");
    assert!(
        pm.machine_tail
            .iter()
            .any(|r| r.label.starts_with("fault:stall")),
        "{:?}",
        pm.machine_tail
    );
    let residual = pm
        .residual_tail
        .as_ref()
        .expect("iterations before the stall");
    assert!(!residual.series.tail().is_empty());
    assert_eq!((residual.attempt, residual.solver), (1, "cg"));
    let kinds: Vec<&str> = pm.service_tail.iter().map(ServiceEvent::kind).collect();
    assert_eq!(kinds, ["admitted", "worker-killed", "completed"]);
}
