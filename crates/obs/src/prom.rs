//! Prometheus text-exposition exporter for the `hpf-service` metrics.
//!
//! The renderer and the reader both live on the type that owns the
//! format, in the service crate ([`MetricsSnapshot::to_prometheus`],
//! [`MetricsSnapshot::to_json`], [`MetricsSnapshot::from_json`]), so
//! the live `/metrics` HTTP endpoint needs no dependency on this crate;
//! this module keeps the historical `render_prometheus` and
//! `snapshot_from_json` names that callers outside the crate import.
//!
//! Exposition format (version 0.0.4): `# HELP` / `# TYPE` headers,
//! `_total`-suffixed counters, labeled per-`(solver, scenario)` outcome
//! counters, plain gauges, and the latency histogram as a cumulative
//! `_bucket` series with `le` labels in **seconds**, a `+Inf` bucket,
//! `_sum` (seconds), and `_count`.

use hpf_service::MetricsSnapshot;

/// Render `snap` as Prometheus text exposition.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    snap.to_prometheus()
}

/// [`MetricsSnapshot::from_json`], under the name the wire-format
/// contract imports.
pub fn snapshot_from_json(text: &str) -> Result<MetricsSnapshot, String> {
    MetricsSnapshot::from_json(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_service::Metrics;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

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
