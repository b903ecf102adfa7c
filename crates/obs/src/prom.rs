//! Prometheus text-exposition exporter for the `hpf-service` metrics.
//!
//! The renderer and the reader both live on the type that owns the
//! format, in the service crate ([`MetricsSnapshot::to_prometheus`],
//! [`MetricsSnapshot::to_json`], [`MetricsSnapshot::from_json`]), so
//! the live `/metrics` HTTP endpoint needs no dependency on this crate;
//! this module keeps the historical `render_prometheus` and
//! `snapshot_from_json` names that callers outside the crate import.

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
