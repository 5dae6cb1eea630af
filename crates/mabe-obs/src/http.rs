//! The embedded HTTP/1.1 server behind the observability plane.
//!
//! Hand-rolled over `std::net::TcpListener`: one accept thread feeds
//! a bounded channel drained by a small fixed worker pool, each
//! worker parsing one request (`GET` only, headers read and ignored)
//! and writing one `Connection: close` response. Overload sheds
//! cleanly — when every worker is busy and the queue is full, the
//! accept thread answers 503 inline rather than queueing unboundedly.
//!
//! Shutdown is graceful and deterministic: [`ObsServer::shutdown`]
//! (also run on drop) flips the stop flag, nudges the accept loop
//! awake with a loopback connection, then joins the accept thread and
//! every worker, so no request is torn mid-write.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::health::{Probe, ReadinessReport};
use crate::procinfo;

/// The Prometheus text exposition content type `/metrics` answers
/// with (version 0.0.4 is the stable text format every scraper
/// understands).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Worker threads serving requests.
const WORKERS: usize = 4;

/// Accepted-but-unserved connections the queue holds before the
/// accept thread starts shedding with 503.
const QUEUE_DEPTH: usize = 64;

/// Per-connection socket timeout: a stalled client cannot pin a
/// worker.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Largest request head (request line + headers) we accept.
const MAX_HEAD: usize = 8 * 1024;

/// Spans `/tracez` returns when the query string names no `n`.
const DEFAULT_TRACEZ_SPANS: usize = 256;

/// Events `/eventz` returns when the query string names no `n`.
const DEFAULT_EVENTZ_EVENTS: usize = 256;

/// Largest `n` the `/tracez` and `/eventz` query strings accept —
/// anything bigger is a client error, not a silently clamped request.
const MAX_QUERY_N: usize = 4096;

enum Job {
    Conn(TcpStream),
    Stop,
}

struct State {
    probes: Vec<Probe>,
}

/// The observability-plane server. Bind it once near process start,
/// keep the handle alive for the process lifetime, and the plane
/// serves until [`shutdown`](ObsServer::shutdown) (or drop).
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    tx: SyncSender<Job>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving. `probes` drive `/readyz`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, probes: Vec<Probe>) -> std::io::Result<ObsServer> {
        procinfo::init_start_time();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(State { probes });
        let (tx, rx) = sync_channel::<Job>(QUEUE_DEPTH);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..WORKERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&rx, &state))
            })
            .collect();

        let accept_stop = Arc::clone(&stop);
        let accept_tx = tx.clone();
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                match accept_tx.try_send(Job::Conn(stream)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(Job::Conn(mut stream))) => {
                        // Shed load instead of queueing unboundedly.
                        let _ = write_response(
                            &mut stream,
                            503,
                            "Service Unavailable",
                            "text/plain; charset=utf-8",
                            "overloaded\n",
                        );
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(ObsServer {
            addr,
            stop,
            tx,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves the actual port for `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// Idempotent via drop (calling it explicitly just makes the join
    /// point visible in the embedding code).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop, which is parked in accept(2).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, state: &State) {
    loop {
        let job = {
            let rx = rx.lock().expect("obs receiver lock");
            rx.recv()
        };
        match job {
            Ok(Job::Conn(stream)) => serve_connection(stream, state),
            Ok(Job::Stop) | Err(_) => return,
        }
    }
}

fn serve_connection(mut stream: TcpStream, state: &State) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some((method, target)) = read_request_head(&mut stream) else {
        let _ = write_response(
            &mut stream,
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "malformed request\n",
        );
        return;
    };
    if method != "GET" {
        let _ = write_response(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served here\n",
        );
        return;
    }
    let (status, reason, content_type, body) = route(&target, state);
    let _ = write_response(&mut stream, status, reason, content_type, &body);
}

/// Reads the request head (through the blank line) and returns
/// `(method, target)` from the request line. Oversized or malformed
/// heads yield `None`.
fn read_request_head(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return None;
        }
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_owned();
    let target = parts.next()?.to_owned();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, target))
}

/// Splits a request target into path and query, and answers the route.
fn route(target: &str, state: &State) -> (u16, &'static str, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let registry = mabe_telemetry::global();
            procinfo::refresh(registry);
            (200, "OK", PROMETHEUS_CONTENT_TYPE, registry.prometheus())
        }
        "/metrics.json" => {
            let registry = mabe_telemetry::global();
            procinfo::refresh(registry);
            (200, "OK", "application/json", registry.snapshot_json())
        }
        "/healthz" => (200, "OK", "application/json", healthz_body()),
        "/readyz" => {
            let report = ReadinessReport::evaluate(&state.probes);
            if report.ready() {
                (200, "OK", "application/json", report.to_json())
            } else {
                (
                    503,
                    "Service Unavailable",
                    "application/json",
                    report.to_json(),
                )
            }
        }
        "/tracez" => match bounded_n(query, DEFAULT_TRACEZ_SPANS) {
            Ok(n) => (200, "OK", "application/json", tracez_body(n)),
            Err(msg) => (400, "Bad Request", "text/plain; charset=utf-8", msg),
        },
        "/eventz" => match bounded_n(query, DEFAULT_EVENTZ_EVENTS) {
            Ok(n) => (200, "OK", "application/json", eventz_body(query, n)),
            Err(msg) => (400, "Bad Request", "text/plain; charset=utf-8", msg),
        },
        "/sloz" => (
            200,
            "OK",
            "application/json",
            mabe_events::global().slo().to_json(),
        ),
        "/profilez" => (
            200,
            "OK",
            "text/plain; charset=utf-8",
            crate::profiler::capture().folded(),
        ),
        "/" => (
            200,
            "OK",
            "text/plain; charset=utf-8",
            "mabe-obs: /metrics /metrics.json /healthz /readyz /tracez /eventz /sloz /profilez\n"
                .to_owned(),
        ),
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            format!("no route for {path}\n"),
        ),
    }
}

fn healthz_body() -> String {
    format!(
        "{{\"status\":\"ok\",\"uptime_seconds\":{},\"pid\":{},\"version\":\"{}\"}}\n",
        procinfo::uptime_seconds(),
        std::process::id(),
        mabe_telemetry::export::json_escape(env!("CARGO_PKG_VERSION")),
    )
}

fn query_param(query: &str, name: &str) -> Option<String> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v.to_owned())
}

/// Parses the `n` query parameter with strict validation: absent means
/// `default`, non-numeric or above [`MAX_QUERY_N`] is a 400 body.
/// (These used to be silently defaulted, which hid client typos like
/// `n=1e4` behind a confusingly small response.)
fn bounded_n(query: &str, default: usize) -> Result<usize, String> {
    let Some(raw) = query_param(query, "n") else {
        return Ok(default);
    };
    match raw.parse::<usize>() {
        Ok(n) if n <= MAX_QUERY_N => Ok(n),
        Ok(n) => Err(format!("n={n} exceeds the cap of {MAX_QUERY_N}\n")),
        Err(_) => Err(format!("n must be a non-negative integer, got {raw:?}\n")),
    }
}

fn tracez_body(n: usize) -> String {
    let rec = mabe_trace::recorder::global();
    let spans = rec.recent(n);
    format!(
        "{{\"format\":\"mabe-tracez/v1\",\"returned_spans\":{},\"committed_spans\":{},\
         \"dropped_spans\":{},\"tree\":{}}}\n",
        spans.len(),
        rec.committed(),
        rec.dropped_spans(),
        mabe_trace::tree_json(&spans),
    )
}

fn eventz_body(query: &str, n: usize) -> String {
    let kind = query_param(query, "kind");
    let outcome = query_param(query, "outcome");
    mabe_events::global().eventz_json(kind.as_deref(), outcome.as_deref(), n)
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal test client: one request, the full raw response.
    pub(crate) fn fetch_raw(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to obs server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn serves_routes_and_404s_unknown_paths() {
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let addr = server.addr();

        let index = fetch_raw(addr, "/");
        assert!(index.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(index.contains("/metrics"));

        let missing = fetch_raw(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));

        let health = fetch_raw(addr, "/healthz");
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"uptime_seconds\""));

        server.shutdown();
    }

    #[test]
    fn metrics_carries_the_prometheus_content_type() {
        mabe_telemetry::global()
            .counter("obs_http_unit_probe_total", &[])
            .inc();
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let body = fetch_raw(server.addr(), "/metrics");
        assert!(body.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(body.contains("obs_http_unit_probe_total"));
        assert!(body.contains("mabe_build_info{version="));
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405 "));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"garbage\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400 "));
        server.shutdown();
    }

    #[test]
    fn readyz_reflects_probe_state() {
        let flag = Arc::new(AtomicBool::new(true));
        let f = Arc::clone(&flag);
        let server = ObsServer::bind(
            "127.0.0.1:0",
            vec![Probe::new("flag", move || f.load(Ordering::SeqCst))],
        )
        .unwrap();
        assert!(fetch_raw(server.addr(), "/readyz").starts_with("HTTP/1.1 200 "));
        flag.store(false, Ordering::SeqCst);
        let down = fetch_raw(server.addr(), "/readyz");
        assert!(down.starts_with("HTTP/1.1 503 "));
        assert!(down.contains("\"name\":\"flag\",\"ok\":false"));
        server.shutdown();
    }

    #[test]
    fn readyz_stays_200_with_a_degraded_body_on_soft_probe_failure() {
        let writable = Arc::new(AtomicBool::new(true));
        let w = Arc::clone(&writable);
        let server = ObsServer::bind(
            "127.0.0.1:0",
            vec![
                Probe::new("not_poisoned", || true),
                Probe::soft("store_writable", move || w.load(Ordering::SeqCst)),
            ],
        )
        .unwrap();
        assert!(fetch_raw(server.addr(), "/readyz").contains("\"degraded\":false"));
        writable.store(false, Ordering::SeqCst);
        let degraded = fetch_raw(server.addr(), "/readyz");
        // Read-only is impaired, not unservable: load balancers must
        // keep routing, so the status stays 200.
        assert!(degraded.starts_with("HTTP/1.1 200 "));
        assert!(degraded.contains("\"ready\":true"));
        assert!(degraded.contains("\"degraded\":true"));
        assert!(degraded.contains("\"name\":\"store_writable\",\"ok\":false"));
        server.shutdown();
    }

    #[test]
    fn readyz_stays_200_while_the_lazy_queue_drains() {
        let depth = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let d = Arc::clone(&depth);
        let server = ObsServer::bind(
            "127.0.0.1:0",
            vec![
                Probe::new("not_poisoned", || true),
                Probe::draining("lazy_queue_empty", move || d.load(Ordering::SeqCst) == 0),
            ],
        )
        .unwrap();
        assert!(fetch_raw(server.addr(), "/readyz").contains("\"draining\":false"));
        depth.store(7, Ordering::SeqCst);
        let draining = fetch_raw(server.addr(), "/readyz");
        // A non-empty pending-upgrade queue is normal operation —
        // security was enforced at revoke ack time, only deferred
        // re-encryption is outstanding — so the status stays 200.
        assert!(draining.starts_with("HTTP/1.1 200 "));
        assert!(draining.contains("\"ready\":true"));
        assert!(draining.contains("\"degraded\":false"));
        assert!(draining.contains("\"draining\":true"));
        assert!(draining.contains("\"name\":\"lazy_queue_empty\",\"ok\":false"));
        depth.store(0, Ordering::SeqCst);
        assert!(fetch_raw(server.addr(), "/readyz").contains("\"draining\":false"));
        server.shutdown();
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("n=32&x=1", "n").as_deref(), Some("32"));
        assert_eq!(query_param("x=1", "n"), None);
        assert_eq!(query_param("", "n"), None);
    }

    #[test]
    fn bounded_n_rejects_garbage_and_oversize() {
        assert_eq!(bounded_n("", 256).unwrap(), 256);
        assert_eq!(bounded_n("kind=read", 256).unwrap(), 256);
        assert_eq!(bounded_n("n=32", 256).unwrap(), 32);
        assert_eq!(bounded_n("n=0", 256).unwrap(), 0);
        let cap = format!("n={MAX_QUERY_N}");
        assert_eq!(bounded_n(&cap, 1).unwrap(), MAX_QUERY_N);
        assert!(bounded_n("n=abc", 256).is_err());
        assert!(bounded_n("n=1e4", 256).is_err());
        assert!(bounded_n("n=-1", 256).is_err());
        assert!(bounded_n("n=", 256).is_err());
        assert!(bounded_n("n=4097", 256).is_err());
        assert!(bounded_n("n=99999999999999999999", 256).is_err());
    }

    #[test]
    fn tracez_and_eventz_reject_malformed_queries_with_400() {
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let addr = server.addr();
        for target in [
            "/tracez?n=abc",
            "/tracez?n=99999999",
            "/tracez?n=",
            "/eventz?n=x",
            "/eventz?n=1000000",
            "/eventz?kind=read&n=abc",
        ] {
            let resp = fetch_raw(addr, target);
            assert!(resp.starts_with("HTTP/1.1 400 "), "{target} gave: {resp}");
        }
        // Well-formed queries (and absent n) still serve.
        assert!(fetch_raw(addr, "/tracez?n=8").starts_with("HTTP/1.1 200 "));
        assert!(fetch_raw(addr, "/tracez").starts_with("HTTP/1.1 200 "));
        let filtered = fetch_raw(addr, "/eventz?n=8&kind=read&outcome=ok");
        assert!(filtered.starts_with("HTTP/1.1 200 "));
        server.shutdown();
    }

    #[test]
    fn eventz_and_sloz_serve_self_describing_json() {
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let addr = server.addr();
        let events = fetch_raw(addr, "/eventz");
        assert!(events.contains("Content-Type: application/json\r\n"));
        assert!(events.contains("\"format\":\"mabe-eventz/v1\""));
        assert!(events.contains("\"emitted\":"));
        let slo = fetch_raw(addr, "/sloz");
        assert!(slo.contains("\"format\":\"mabe-sloz/v1\""));
        assert!(slo.contains("\"fast_burn_threshold\":14.4"));
        assert!(slo.contains("\"kind\":\"read\""));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_frees_the_port() {
        let server = ObsServer::bind("127.0.0.1:0", Vec::new()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: a fresh bind on the same port works.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
    }
}
