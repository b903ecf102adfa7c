//! A dependency-free blocking HTTP/1.1 listener exposing the service's
//! observability surface:
//!
//! - `GET /metrics`  — Prometheus text exposition (version 0.0.4) of
//!   the live [`crate::Metrics`] counters,
//! - `GET /healthz`  — JSON liveness: queue depth, in-flight jobs, open
//!   circuit breakers, uptime; answers `503` once shutdown has begun,
//! - any other path: the JSON document the embedding process last
//!   published there with [`MetricsServer::publish`], verbatim — by
//!   convention the cost-oracle `DriftReport` at `/drift`, the per-class
//!   SLO status at `/slo` and the burn-rate alerts at `/alerts` (both
//!   evaluated by `hpf-obs::slo`), the flight recorder's post-mortem
//!   index at `/postmortems` and each dump at `/postmortems/<trace-hex>`.
//!
//! A path nothing was published at answers `404`, with one exception:
//! once the embedding process has published *anything*, `/slo`,
//! `/alerts` and `/postmortems` answer `200` with an empty document of
//! the shape their publishers write (`EMPTY`), so that "nothing to
//! report yet" is not mistaken for "no publisher wired".
//!
//! This is intentionally *not* a web framework: one accept loop on a
//! background thread, one short-lived connection per scrape, request
//! parsing limited to the request line. That is exactly what a
//! Prometheus scraper or a `curl` in a terminal needs, and it keeps the
//! crate's "no external dependencies" property intact.
//!
//! Framing is still done properly, because TCP delivers a request in
//! whatever pieces it likes: the head is read up to its blank line
//! (`431` past [`MAX_HEAD_BYTES`], `400` if the client stops sending
//! first, `408` after [`HEAD_DEADLINE`]), one response is written with
//! `Connection: close`, and whatever else the client sent (a pipelined
//! second request) is read and dropped before the socket closes —
//! closing with unread bytes would reset the connection under the
//! response the client is still reading.

use crate::lock;
use crate::metrics::Metrics;
use crate::retry::CircuitBreaker;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head (request line + headers + blank line) accepted.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// How long a client has to deliver its request head. The listener
/// serves one connection at a time, so this also bounds how long a slow
/// client can hold up the next scrape.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// After the response: how long, and how much, of the client's leftover
/// input is read and dropped before closing.
const DRAIN_DEADLINE: Duration = Duration::from_millis(250);
const DRAIN_BYTES: usize = 64 * 1024;

/// What a publisher-fed path serves once anything at all is published
/// and it has nothing of its own yet: the empty document of the shape
/// its publisher writes (`SloTracker::status_json` and `alerts_json`
/// write arrays, `FlightRecorder::index_json` an object).
const EMPTY: [(&str, &str); 3] = [
    ("/slo", "[]"),
    ("/alerts", "[]"),
    ("/postmortems", "{\"postmortems\":[]}"),
];

/// Documents published by the embedding process, by path.
type Published = Mutex<HashMap<String, String>>;

/// Handle to a running metrics listener. Dropping it stops the accept
/// loop and joins the thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    published: Arc<Published>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port `0`: the OS picks a free
    /// port and this reports it).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve `json` verbatim at `GET <path>` (`/drift`,
    /// `/postmortems/<16-digit lowercase trace hex>`, ...), replacing
    /// what was published there before. `/metrics` and `/healthz` stay
    /// live whatever is published at them.
    pub fn publish(&self, path: &str, json: String) {
        lock(&self.published).insert(path.to_string(), json);
    }

    /// Stop the accept loop and join the listener thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything the request handler needs, cloned out of the service so
/// the listener holds no borrow of it.
pub(crate) struct HttpState {
    pub metrics: Arc<Metrics>,
    pub breaker: Arc<CircuitBreaker>,
    pub shutting_down: Arc<AtomicBool>,
}

/// Bind `addr` (e.g. `"127.0.0.1:9090"`, or port `0` for an ephemeral
/// port) and serve until the returned handle is stopped or dropped.
pub(crate) fn spawn(addr: &str, state: HttpState) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let published = Arc::<Published>::default();
    let loop_stop = stop.clone();
    let loop_published = published.clone();
    let handle = std::thread::Builder::new()
        .name("hpf-metrics-http".to_string())
        .spawn(move || {
            while !loop_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => handle_connection(stream, &state, &loop_published),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })?;
    Ok(MetricsServer {
        addr: local,
        stop,
        published,
        handle: Some(handle),
    })
}

/// What arrived on a connection before its request could be routed.
#[derive(Debug, PartialEq, Eq)]
enum Head {
    /// Everything up to and including the blank line.
    Complete(Vec<u8>),
    /// More than [`MAX_HEAD_BYTES`] without a blank line.
    TooLarge,
    /// The client stopped sending mid-head.
    Truncated,
    /// The deadline passed mid-head.
    TimedOut,
    /// The client connected and left (or the socket failed): nobody to
    /// answer.
    Gone,
}

/// Read a request head: bytes until `\r\n\r\n`, however many reads
/// that takes. Bytes past the blank line (a request body, a pipelined
/// request) may be consumed and are dropped.
fn read_head(stream: &mut TcpStream, deadline: Duration) -> Head {
    let give_up_at = Instant::now() + deadline;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        let left = give_up_at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Head::TimedOut;
        }
        // `set_read_timeout` rejects a zero duration; `left` is not.
        let _ = stream.set_read_timeout(Some(left));
        match stream.read(&mut chunk) {
            Ok(0) if head.is_empty() => return Head::Gone,
            Ok(0) => return Head::Truncated,
            Ok(n) => {
                // The terminator may straddle two reads.
                let scan_from = head.len().saturating_sub(3);
                head.extend_from_slice(&chunk[..n]);
                let end = head[scan_from..]
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map(|at| scan_from + at + 4);
                if end.unwrap_or(head.len()) > MAX_HEAD_BYTES {
                    return Head::TooLarge;
                }
                if let Some(end) = end {
                    head.truncate(end);
                    return Head::Complete(head);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Head::TimedOut;
            }
            Err(_) => return Head::Gone,
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &HttpState, published: &Published) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let plain = "text/plain; charset=utf-8";
    let (status, content_type, body) = match read_head(&mut stream, HEAD_DEADLINE) {
        Head::Complete(head) => {
            let head = String::from_utf8_lossy(&head);
            let mut parts = head.lines().next().unwrap_or("").split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            route(method, path, state, published)
        }
        Head::TooLarge => (
            "431 Request Header Fields Too Large",
            plain,
            format!("request head exceeds {MAX_HEAD_BYTES} bytes\n"),
        ),
        Head::Truncated => (
            "400 Bad Request",
            plain,
            "request ended before its blank line\n".to_string(),
        ),
        Head::TimedOut => (
            "408 Request Timeout",
            plain,
            "request head not received in time\n".to_string(),
        ),
        Head::Gone => return,
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(response.as_bytes()).is_err() {
        return;
    }
    // Tell the client the response is complete, then read off whatever
    // it still had in flight so the close below is a FIN, not a reset.
    let _ = stream.shutdown(Shutdown::Write);
    let give_up_at = Instant::now() + DRAIN_DEADLINE;
    let mut dropped = 0usize;
    let mut chunk = [0u8; 1024];
    while dropped < DRAIN_BYTES {
        let left = give_up_at.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => dropped += n,
        }
    }
}

fn route(
    method: &str,
    path: &str,
    state: &HttpState,
    published: &Published,
) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.metrics.snapshot().to_prometheus(),
        ),
        "/healthz" => {
            let snap = state.metrics.snapshot();
            let open_circuits = state.breaker.open_circuits();
            // Three states: `draining` (503) once shutdown begins,
            // `degraded` (200, the service still answers) when the
            // intake queue is nearly full or any structure's breaker is
            // open, `ok` otherwise. Load balancers key off the status
            // code; dashboards read the body.
            let (status, code) = if state.shutting_down.load(Ordering::Relaxed) {
                ("draining", "503 Service Unavailable")
            } else if snap.queue_saturation > 0.8 || open_circuits > 0 {
                ("degraded", "200 OK")
            } else {
                ("ok", "200 OK")
            };
            let mut body = String::new();
            hpf_json::Obj::new(&mut body)
                .str("status", status)
                .u64("queue_depth", snap.queue_depth as u64)
                .f64("queue_saturation", snap.queue_saturation)
                .u64("in_flight", snap.in_flight)
                .u64("open_circuits", open_circuits as u64)
                .f64("uptime_seconds", snap.uptime_seconds);
            (code, "application/json", body)
        }
        _ => {
            let published = lock(published);
            let doc = published.get(path).map(String::as_str).or_else(|| {
                let started = !published.is_empty();
                let empty = EMPTY.iter().find(|&&(at, _)| started && at == path);
                empty.map(|&(_, doc)| doc)
            });
            match doc {
                Some(doc) => ("200 OK", "application/json", doc.to_string()),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "nothing published here; try /metrics, /healthz, /drift, /slo, \
                     /alerts or /postmortems\n"
                        .to_string(),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        exchange(
            addr,
            &[format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()],
        )
    }

    fn test_state() -> HttpState {
        HttpState {
            metrics: Arc::new(Metrics::new(0)),
            breaker: Arc::new(CircuitBreaker::new(5, Duration::from_millis(100))),
            shutting_down: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let state = test_state();
        state.metrics.add(crate::metrics::Counter::Accepted, 2);
        let mut server = spawn("127.0.0.1:0", state).unwrap();
        let metrics = get(server.addr(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("hpf_service_accepted_total 2"));
        let health = get(server.addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.contains("\"status\":\"ok\""));
        let missing = get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        server.stop();
    }

    #[test]
    fn drift_is_404_until_published() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        assert!(get(server.addr(), "/drift").starts_with("HTTP/1.1 404"));
        server.publish("/drift", "{\"total_measured\":1}".to_string());
        let drift = get(server.addr(), "/drift");
        assert!(drift.starts_with("HTTP/1.1 200 OK"), "{drift}");
        assert!(drift.contains("\"total_measured\":1"));
        server.stop();
    }

    #[test]
    fn slo_and_alerts_are_404_only_before_any_publishing() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        // No publisher wired at all: 404 tells the scraper so.
        for path in ["/slo", "/alerts", "/postmortems", "/drift"] {
            assert!(get(server.addr(), path).starts_with("HTTP/1.1 404"));
        }
        // Any publish starts publishing: the three publisher-fed paths
        // without a document of their own now answer 200 with an empty
        // one of the shape their publishers write, instead of an
        // ambiguous 404. Any other path still has nothing to serve.
        server.publish("/drift", "{\"total_measured\":1}".to_string());
        for (path, empty) in [
            ("/slo", "[]"),
            ("/alerts", "[]"),
            ("/postmortems", "{\"postmortems\":[]}"),
        ] {
            let answer = get(server.addr(), path);
            assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
            assert!(answer.ends_with(&format!("\r\n\r\n{empty}")), "{answer}");
        }
        assert!(get(server.addr(), "/postmortems/00000000000000ab").starts_with("HTTP/1.1 404"));
        // Real documents replace the empty placeholders verbatim.
        server.publish("/slo", "[{\"class\":\"interactive\"}]".to_string());
        server.publish("/alerts", "[{\"state\":\"firing\"}]".to_string());
        let slo = get(server.addr(), "/slo");
        assert!(
            slo.ends_with("\r\n\r\n[{\"class\":\"interactive\"}]"),
            "{slo}"
        );
        let alerts = get(server.addr(), "/alerts");
        assert!(
            alerts.ends_with("\r\n\r\n[{\"state\":\"firing\"}]"),
            "{alerts}"
        );
        // The 404 fallback advertises the endpoints.
        let missing = get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("/alerts"), "{missing}");
        assert!(missing.contains("/postmortems"), "{missing}");
        server.stop();
    }

    #[test]
    fn postmortems_index_and_per_trace_docs_are_served() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        assert!(get(server.addr(), "/postmortems").starts_with("HTTP/1.1 404"));
        server.publish("/alerts", "[]".to_string());
        let empty = get(server.addr(), "/postmortems");
        assert!(empty.starts_with("HTTP/1.1 200 OK"), "{empty}");
        assert!(empty.contains("{\"postmortems\":[]}"), "{empty}");
        server.publish(
            "/postmortems",
            "{\"postmortems\":[{\"trace\":\"00000000000000ab\"}]}".into(),
        );
        server.publish(
            "/postmortems/00000000000000ab",
            "{\"trace\":\"00000000000000ab\"}".into(),
        );
        let index = get(server.addr(), "/postmortems");
        assert!(index.contains("00000000000000ab"), "{index}");
        let doc = get(server.addr(), "/postmortems/00000000000000ab");
        assert!(doc.starts_with("HTTP/1.1 200 OK"), "{doc}");
        assert!(doc.contains("\"trace\":\"00000000000000ab\""), "{doc}");
        let missing = get(server.addr(), "/postmortems/ffffffffffffffff");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        // `/metrics` and `/healthz` stay live whatever is published there.
        server.publish("/healthz", "{\"status\":\"published\"}".into());
        let health = get(server.addr(), "/healthz");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        server.stop();
    }

    #[test]
    fn healthz_turns_503_draining_on_shutdown() {
        let state = test_state();
        let flag = state.shutting_down.clone();
        let mut server = spawn("127.0.0.1:0", state).unwrap();
        flag.store(true, Ordering::SeqCst);
        let health = get(server.addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.1 503"), "{health}");
        assert!(health.contains("\"status\":\"draining\""));
        server.stop();
    }

    #[test]
    fn healthz_degrades_on_queue_saturation_or_open_breaker() {
        let state = HttpState {
            metrics: Arc::new(Metrics::new(10)),
            ..test_state()
        };
        let metrics = state.metrics.clone();
        let breaker = state.breaker.clone();
        let mut server = spawn("127.0.0.1:0", state).unwrap();
        // One class queue above the 80% threshold degrades, still 200.
        metrics.queued(1, 9);
        let health = get(server.addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        assert!(health.contains("\"queue_saturation\":0.9"), "{health}");
        // Back under the threshold: ok again.
        metrics.dequeued(1, 8);
        let health = get(server.addr(), "/healthz");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        // An open circuit degrades even with an empty queue.
        let fp = crate::fingerprint::Fingerprint {
            n_rows: 4,
            n_cols: 4,
            nnz: 8,
            pattern_hash: 99,
        };
        for _ in 0..5 {
            breaker.record_failure(fp);
        }
        let health = get(server.addr(), "/healthz");
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        server.stop();
    }

    /// Send `pieces` one write at a time (no coalescing), then read the
    /// whole answer. `read_to_string` fails on a reset, so a passing call
    /// also shows the connection was closed cleanly.
    fn exchange(addr: SocketAddr, pieces: &[&[u8]]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        for piece in pieces {
            s.write_all(piece).unwrap();
            s.flush().unwrap();
        }
        let mut out = String::new();
        s.read_to_string(&mut out)
            .expect("answer, then a clean close");
        out
    }

    #[test]
    fn a_request_split_across_writes_is_answered_once_whole() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        // Split inside the request line, inside a header, and inside
        // the terminating blank line itself.
        let out = exchange(
            server.addr(),
            &[b"GET /hea", b"lthz HTTP/1.1\r\nHo", b"st: x\r\n\r", b"\n"],
        );
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");
        server.stop();
    }

    #[test]
    fn a_request_sent_a_byte_at_a_time_is_answered() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        let request = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let bytes: Vec<&[u8]> = request.chunks(1).collect();
        let out = exchange(server.addr(), &bytes);
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("hpf_service_accepted_total"), "{out}");
        server.stop();
    }

    #[test]
    fn an_oversized_head_is_431() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        let mut request = b"GET /metrics HTTP/1.1\r\nX-Padding: ".to_vec();
        request.resize(2 * MAX_HEAD_BYTES, b'a');
        let out = exchange(server.addr(), &[&request]);
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        // A head of exactly the cap is still served.
        let mut request = b"GET /healthz HTTP/1.1\r\nX-Padding: ".to_vec();
        request.resize(MAX_HEAD_BYTES - 4, b'a');
        request.extend_from_slice(b"\r\n\r\n");
        let out = exchange(server.addr(), &[&request]);
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        server.stop();
    }

    #[test]
    fn a_pipelined_second_request_is_dropped_without_a_reset() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        let first = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let second = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        // Both in one segment, and the second in a segment of its own
        // (it then arrives while or after the first is answered).
        let together = [first.as_slice(), second.as_slice()].concat();
        for pieces in [vec![together.as_slice()], vec![first, second]] {
            let out = exchange(server.addr(), &pieces);
            assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
            assert!(out.contains("Connection: close"), "{out}");
            assert!(out.contains("\"status\":\"ok\""), "{out}");
            assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");
        }
        server.stop();
    }

    #[test]
    fn a_head_cut_short_is_400() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // A client that connects and leaves is not answered at all.
        drop(TcpStream::connect(server.addr()).unwrap());
        assert!(get(server.addr(), "/healthz").starts_with("HTTP/1.1 200"));
        server.stop();
    }

    #[test]
    fn a_slow_client_times_out_instead_of_holding_the_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        client.write_all(b"GET /metrics HT").unwrap();
        // The client stays connected and silent: only the deadline ends this.
        assert_eq!(
            read_head(&mut served, Duration::from_millis(50)),
            Head::TimedOut
        );
        client.write_all(b"TP/1.1\r\n\r\nextra").unwrap();
        assert_eq!(
            read_head(&mut served, HEAD_DEADLINE),
            Head::Complete(b"TP/1.1\r\n\r\n".to_vec())
        );
    }

    #[test]
    fn non_get_is_405() {
        let mut server = spawn("127.0.0.1:0", test_state()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        server.stop();
    }
}
