//! The bus's one consumer takes what is queued under one lock while the
//! producers keep publishing: nothing accepted may be lost or repeated.

use hpf_obs::{BusEvent, BusOrigin, EventBus, SamplingPolicy};

fn event(producer: u64, nth: u64) -> BusEvent {
    BusEvent {
        seq: 0,
        wall_s: 0.0,
        origin: BusOrigin::Machine,
        kind: "AllReduce".to_string(),
        trace_id: producer,
        class: String::new(),
        span: format!("trace={producer:016x}/solve"),
        label: "dot-merge".to_string(),
        time_s: 1.5e-4,
        latency_us: nth,
        ok: true,
        outcome: String::new(),
    }
}

#[test]
fn drain_racing_publish_loses_nothing_and_keeps_each_producers_order() {
    const EACH: u64 = 2_000;
    // Small enough that a slow consumer makes the queue overflow: what
    // is not dropped must still come out, once (strictly ascending per
    // producer rules out a repeat) and in order.
    let bus = EventBus::new(64, SamplingPolicy::keep_all());
    let start = std::sync::Barrier::new(4);
    let mut drained = Vec::new();
    std::thread::scope(|scope| {
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let (bus, start) = (&bus, &start);
                scope.spawn(move || {
                    start.wait();
                    for nth in 0..EACH {
                        bus.publish(event(p, nth), false);
                    }
                })
            })
            .collect();
        start.wait();
        while producers.iter().any(|p| !p.is_finished()) {
            drained.extend(bus.drain());
        }
    });
    drained.extend(bus.drain());
    let stats = bus.stats();
    assert_eq!(stats.published, 3 * EACH);
    assert_eq!(drained.len() as u64, stats.published - stats.dropped);
    for p in 0..3 {
        let mine = drained.iter().filter(|e| e.trace_id == p);
        let order: Vec<u64> = mine.map(|e| e.latency_us).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "producer {p}");
    }
}
