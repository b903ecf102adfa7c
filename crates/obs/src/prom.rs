//! Prometheus text-exposition exporter for the `hpf-service` metrics.
//!
//! The actual renderer lives in the service crate
//! ([`MetricsSnapshot::to_prometheus`]) so the live `/metrics` HTTP
//! endpoint needs no dependency on this crate; this module keeps the
//! historical `render_prometheus` entry point and owns the *offline*
//! direction — parsing a snapshot back out of its JSON file so
//! `trace-report` can re-render metrics captured by another process.
//!
//! Exposition format (version 0.0.4): `# HELP` / `# TYPE` headers,
//! `_total`-suffixed counters, labeled per-`(solver, scenario)` outcome
//! counters, plain gauges, and the latency histogram as a cumulative
//! `_bucket` series with `le` labels in **seconds**, a `+Inf` bucket,
//! `_sum` (seconds), and `_count`.

use hpf_service::{MetricsSnapshot, PostmortemCount, SolveOutcome};

/// Render `snap` as Prometheus text exposition.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    snap.to_prometheus()
}

/// Parse a [`MetricsSnapshot`] back from the JSON produced by
/// [`MetricsSnapshot::to_json`]. This is what lets `trace-report` turn
/// a metrics file saved by one process into Prometheus text in another.
/// The `"+inf"` bucket bound reads as `u64::MAX` and a `null` gauge as
/// NaN, as the writer wrote them.
pub fn snapshot_from_json(text: &str) -> Result<MetricsSnapshot, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let u = |key: &str| doc.u64_of(key);
    let mut bounds = Vec::new();
    let mut counts = Vec::new();
    for bucket in doc.items_of("latency")? {
        bounds.push(match bucket.field("le_us")?.as_str() {
            Some("+inf") => u64::MAX,
            _ => bucket.u64_of("le_us")?,
        });
        counts.push(bucket.u64_of("count")?);
    }
    let class_depths = doc.items_of("class_queue_depth")?.iter();
    let class_depths: Vec<u64> = class_depths
        .map(|d| d.as_u64().ok_or("bad class depth"))
        .collect::<Result<_, _>>()?;
    let outcomes = doc.items_of("solve_outcomes")?.iter();
    // Older snapshot files predate the flight recorder; treat a missing
    // postmortems section as empty rather than a parse failure.
    let postmortems = match doc.get("postmortems") {
        Some(_) => doc.items_of("postmortems")?,
        None => &[],
    };
    Ok(MetricsSnapshot {
        accepted: u("accepted")?,
        rejected_busy: u("rejected_busy")?,
        rejected_invalid: u("rejected_invalid")?,
        completed: u("completed")?,
        failed: u("failed")?,
        deadline_exceeded: u("deadline_exceeded")?,
        cache_hits: u("cache_hits")?,
        cache_misses: u("cache_misses")?,
        partitioner_invocations: u("partitioner_invocations")?,
        batches_executed: u("batches_executed")?,
        batched_jobs: u("batched_jobs")?,
        rhs_solved: u("rhs_solved")?,
        in_flight: u("in_flight")?,
        faults_injected: u("faults_injected")?,
        faults_detected: u("faults_detected")?,
        rollbacks: u("rollbacks")?,
        retries: u("retries")?,
        escalations: u("escalations")?,
        breaker_open: u("breaker_open")?,
        shed_total: u("shed_total")?,
        supervisor_kills: u("supervisor_kills")?,
        worker_restarts: u("worker_restarts")?,
        queue_depth: u("queue_depth")? as usize,
        class_queue_depth: class_depths
            .try_into()
            .map_err(|_| "class_queue_depth must have 3 entries".to_string())?,
        queue_saturation: doc.f64_of("queue_saturation")?,
        uptime_seconds: doc.f64_of("uptime_seconds")?,
        latency_bucket_bounds_us: bounds,
        latency_buckets: counts,
        latency_sum_us: u("latency_sum_us")?,
        solve_outcomes: outcomes
            .map(|o| {
                Ok(SolveOutcome {
                    solver: o.str_of("solver")?.to_string(),
                    scenario: o.str_of("scenario")?.to_string(),
                    completed: o.u64_of("completed")?,
                    failed: o.u64_of("failed")?,
                })
            })
            .collect::<Result<_, String>>()?,
        postmortems: postmortems
            .iter()
            .map(|p| {
                Ok(PostmortemCount {
                    verdict: p.str_of("verdict")?.to_string(),
                    count: p.u64_of("count")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_service::Metrics;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        let m = Metrics::new();
        m.accepted.fetch_add(9, Ordering::Relaxed);
        m.rollbacks.fetch_add(2, Ordering::Relaxed);
        m.queue_depth.store(3, Ordering::Relaxed);
        m.observe_latency(Duration::from_micros(120));
        m.record_solve_outcome("cg", "rowwise", true);
        m.record_solve_outcome("gmres", "colwise", false);
        let snap = m.snapshot();
        let back = snapshot_from_json(&snap.to_json()).unwrap();
        assert_eq!(back.accepted, 9);
        assert_eq!(back.rollbacks, 2);
        assert_eq!(back.queue_depth, 3);
        assert_eq!(back.latency_buckets, snap.latency_buckets);
        assert_eq!(back.latency_bucket_bounds_us, snap.latency_bucket_bounds_us);
        assert_eq!(back.latency_sum_us, 120);
        assert_eq!(back.solve_outcomes, snap.solve_outcomes);
        assert!((back.uptime_seconds - snap.uptime_seconds).abs() < 1e-9);
        // And the parsed snapshot renders identical Prometheus text.
        assert_eq!(render_prometheus(&back), render_prometheus(&snap));
    }

    #[test]
    fn parser_rejects_garbage_and_missing_fields() {
        assert!(snapshot_from_json("not json").is_err());
        assert!(snapshot_from_json("{}").is_err());
        assert!(snapshot_from_json("{\"accepted\":1}").is_err());
    }

    #[test]
    fn exposition_has_counters_gauges_and_cumulative_buckets() {
        let m = Metrics::new();
        m.accepted.fetch_add(4, Ordering::Relaxed);
        m.completed.fetch_add(3, Ordering::Relaxed);
        m.queue_depth.store(2, Ordering::Relaxed);
        m.observe_latency(Duration::from_micros(50));
        m.observe_latency(Duration::from_micros(50));
        m.observe_latency(Duration::from_millis(5));
        let text = render_prometheus(&m.snapshot());

        assert!(text.contains("hpf_service_accepted_total 4"));
        assert!(text.contains("hpf_service_completed_total 3"));
        assert!(text.contains("hpf_service_queue_depth 2"));
        assert!(text.contains("# TYPE hpf_service_queue_depth gauge"));
        assert!(text.contains("# TYPE hpf_service_latency_seconds histogram"));
        // Buckets are cumulative: 2 in <=0.0001, still 2 at <=0.001,
        // 3 from <=0.01 onwards, and +Inf == _count == 3.
        assert!(text.contains("latency_seconds_bucket{le=\"0.0001\"} 2"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.001\"} 2"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("hpf_service_latency_seconds_count 3"));
        assert!(text.contains("hpf_service_uptime_seconds"));
    }

    #[test]
    fn every_metric_line_is_name_space_value() {
        let text = render_prometheus(&Metrics::new().snapshot());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(parts.next().is_none(), "extra tokens in {line:?}");
            assert!(name.starts_with("hpf_service_"), "bad name in {line:?}");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn type_headers_precede_their_series() {
        let text = render_prometheus(&Metrics::new().snapshot());
        let type_pos = text.find("# TYPE hpf_service_accepted_total").unwrap();
        let series_pos = text.find("\nhpf_service_accepted_total ").unwrap();
        assert!(type_pos < series_pos);
    }

    /// Pull the cumulative histogram out of an exposition: `(le, count)`
    /// per bucket line, plus the `_sum` and `_count` series.
    fn scrape_histogram(text: &str) -> (Vec<(f64, u64)>, f64, u64) {
        let mut buckets = Vec::new();
        let mut sum = f64::NAN;
        let mut count = 0;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').unwrap();
            if let Some(label) = name
                .strip_prefix("hpf_service_latency_seconds_bucket{le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
            {
                let le = if label == "+Inf" {
                    f64::INFINITY
                } else {
                    label.parse().unwrap()
                };
                buckets.push((le, value.parse().unwrap()));
            } else if name == "hpf_service_latency_seconds_sum" {
                sum = value.parse().unwrap();
            } else if name == "hpf_service_latency_seconds_count" {
                count = value.parse().unwrap();
            }
        }
        (buckets, sum, count)
    }

    #[test]
    fn histogram_ends_in_inf_and_is_cumulative_and_monotone() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(40));
        m.observe_latency(Duration::from_micros(700));
        m.observe_latency(Duration::from_secs(30)); // lands in +Inf only
        let (buckets, sum, count) = scrape_histogram(&render_prometheus(&m.snapshot()));
        assert!(!buckets.is_empty());
        let (last_le, last_count) = *buckets.last().unwrap();
        assert!(
            last_le.is_infinite(),
            "exposition must end in a +Inf bucket"
        );
        // Bounds strictly increase and counts never decrease.
        for pair in buckets.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "le bounds not increasing: {buckets:?}"
            );
            assert!(pair[0].1 <= pair[1].1, "counts not cumulative: {buckets:?}");
        }
        // +Inf bucket equals _count equals total observations.
        assert_eq!(last_count, 3);
        assert_eq!(count, 3);
        // _sum is consistent with what was observed (seconds).
        let expected = 40e-6 + 700e-6 + 30.0;
        assert!((sum - expected).abs() < 1e-9, "sum {sum} vs {expected}");
    }

    #[test]
    fn scraped_exposition_parses_and_labels_are_wellformed() {
        let m = Metrics::new();
        m.record_solve_outcome("bicgstab", "e25 col", true);
        m.observe_latency(Duration::from_micros(5));
        let text = render_prometheus(&m.snapshot());
        // The labeled series is present, with the space sanitized out of
        // the scenario value so line-oriented parsers stay happy.
        assert!(text.contains(
            "hpf_service_solve_completed_total{solver=\"bicgstab\",scenario=\"e25_col\"} 1"
        ));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once(' ').expect("name SP value");
            assert!(name.starts_with("hpf_service_"), "{line:?}");
            if let Some(open) = name.find('{') {
                assert!(name.ends_with('}'), "unclosed label set in {line:?}");
                for pair in name[open + 1..name.len() - 1].split(',') {
                    let (k, v) = pair.split_once('=').expect("k=\"v\" label");
                    assert!(!k.is_empty());
                    assert!(v.starts_with('"') && v.ends_with('"'), "{line:?}");
                }
            }
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
