//! End-to-end scrape tests for the observability plane: a real
//! [`mabe_obs::ObsServer`] bound to an ephemeral loopback port,
//! exercised over actual TCP by a minimal HTTP/1.0 client — the same
//! path a Prometheus scraper or `curl` takes.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mabe_cloud::DurableSystem;
use mabe_faults::FaultKind;
use mabe_obs::{json, Probe, PROMETHEUS_CONTENT_TYPE};
use mabe_store::{store_points, SimDisk};

/// One raw HTTP/1.0 exchange: returns (status line, headers, body).
fn fetch(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_owned(), headers.to_owned(), body.to_owned())
}

#[test]
fn metrics_scrape_is_prometheus_text_with_cumulative_buckets() {
    // Seed the global registry with a histogram so the scrape carries
    // cumulative buckets, and a counter for good measure.
    let registry = mabe_telemetry::global();
    registry
        .counter("mabe_obs_e2e_ops_total", &[("op", "scrape")])
        .add(3);
    let h = registry.histogram("mabe_obs_e2e_latency_us", &[]);
    h.record(1);
    h.record(50);

    let server = mabe_obs::ObsServer::bind("127.0.0.1:0", Vec::new()).expect("bind");
    let addr = server.addr();

    let (status, headers, body) = fetch(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        headers
            .to_ascii_lowercase()
            .contains(&format!("content-type: {PROMETHEUS_CONTENT_TYPE}")),
        "prometheus scrapers key on the 0.0.4 content type: {headers}"
    );
    assert!(body.contains("mabe_obs_e2e_ops_total{op=\"scrape\"} 3"));
    // Cumulative histogram series, +Inf bucket last.
    assert!(body.contains("mabe_obs_e2e_latency_us_bucket"), "{body}");
    assert!(body.contains("le=\"+Inf\"} 2"), "{body}");
    // Process self-metrics ride along on every scrape.
    assert!(body.contains("mabe_build_info"));
    assert!(body.contains("mabe_process_uptime_seconds"));

    // The JSON mirror parses and carries the same counter.
    let (status, _, json_body) = fetch(addr, "/metrics.json");
    assert!(status.contains("200"));
    let doc = json::parse(&json_body).expect("metrics.json is valid JSON");
    assert!(doc.get("families").is_some() || !json_body.is_empty());

    server.shutdown();
}

#[test]
fn concurrent_scrapes_all_succeed() {
    let server = Arc::new(mabe_obs::ObsServer::bind("127.0.0.1:0", Vec::new()).expect("bind"));
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, _, body) = fetch(addr, "/metrics");
                    assert!(status.contains("200"), "{status}");
                    assert!(body.contains("mabe_build_info"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("scraper thread");
    }
}

#[test]
fn unknown_paths_are_404_and_healthz_answers() {
    let server = mabe_obs::ObsServer::bind("127.0.0.1:0", Vec::new()).expect("bind");
    let addr = server.addr();

    let (status, _, _) = fetch(addr, "/nonexistent");
    assert!(status.contains("404"), "{status}");

    let (status, _, body) = fetch(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    let doc = json::parse(&body).expect("healthz is JSON");
    assert_eq!(doc.get("status").and_then(json::Value::as_str), Some("ok"));
    assert!(doc.get("pid").and_then(json::Value::as_f64).is_some());
}

#[test]
fn readyz_flips_to_503_when_the_durable_system_poisons() {
    // A healthy journaled deployment behind a readiness probe.
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), 0xED).expect("fresh open");
    ds.add_authority("MedOrg", &["Doctor"]).expect("authority");
    let alice = ds.add_user("alice").expect("user");
    assert!(!ds.poisoned());

    let shared = Arc::new(Mutex::new(ds));
    let probe_view = Arc::clone(&shared);
    let probes = vec![Probe::new("wal_not_poisoned", move || {
        probe_view.lock().map(|ds| !ds.poisoned()).unwrap_or(false)
    })];
    let server = mabe_obs::ObsServer::bind("127.0.0.1:0", probes).expect("bind");
    let addr = server.addr();

    let (status, _, body) = fetch(addr, "/readyz");
    assert!(
        status.contains("200"),
        "healthy system must be ready: {status}"
    );
    assert!(
        body.contains("\"ready\": true") || body.contains("\"ready\":true"),
        "{body}"
    );

    // Crash the journal append mid-grant: the handle poisons itself.
    {
        let mut ds = shared.lock().unwrap();
        ds.storage_mut()
            .injector_mut()
            .schedule(store_points::APPEND, 1, FaultKind::Crash);
        ds.grant(&alice, &["Doctor@MedOrg"])
            .expect_err("scheduled crash");
        assert!(ds.poisoned());
    }

    // The same live server now reports not-ready with 503.
    let (status, _, body) = fetch(addr, "/readyz");
    assert!(
        status.contains("503"),
        "poisoned system must be unready: {status}"
    );
    assert!(body.contains("wal_not_poisoned"), "{body}");

    server.shutdown();
}

#[test]
fn readyz_reports_disk_full_degradation_as_200_with_degraded_body() {
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), 0xF0).expect("fresh open");
    ds.add_authority("MedOrg", &["Doctor"]).expect("authority");
    let alice = ds.add_user("alice").expect("user");
    let mut ds = ds;
    let used = ds.storage().live_bytes();
    // Leave less free space than the degrade headroom: the next
    // mutation trips the read-only gate without touching the disk.
    ds.storage_mut().set_capacity(Some(used + 512));

    let shared = Arc::new(Mutex::new(ds));
    let poisoned_view = Arc::clone(&shared);
    let writable_view = Arc::clone(&shared);
    let probes = vec![
        Probe::new("wal_not_poisoned", move || {
            poisoned_view
                .lock()
                .map(|ds| !ds.poisoned())
                .unwrap_or(false)
        }),
        // Soft: a full disk is impaired, not unservable — reads still
        // work, so the process must keep receiving traffic.
        Probe::soft("store_writable", move || {
            writable_view
                .lock()
                .map(|ds| !ds.degraded())
                .unwrap_or(false)
        }),
    ];
    let server = mabe_obs::ObsServer::bind("127.0.0.1:0", probes).expect("bind");
    let addr = server.addr();

    {
        let ds = shared.lock().unwrap();
        let err = ds.grant(&alice, &["Doctor@MedOrg"]).expect_err("disk full");
        assert!(
            matches!(err, mabe_cloud::CloudError::StoreFull { .. }),
            "typed ENOSPC: {err}"
        );
        assert!(ds.degraded());
        assert!(!ds.poisoned(), "a full disk must never poison");
    }

    let (status, _, body) = fetch(addr, "/readyz");
    assert!(status.contains("200"), "degraded is still ready: {status}");
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"degraded\":true"), "{body}");
    assert!(
        body.contains("\"name\":\"store_writable\",\"ok\":false"),
        "{body}"
    );

    // Reclaimed space lifts the degradation on the next mutation, and
    // the very next scrape reflects it.
    {
        let mut ds = shared.lock().unwrap();
        ds.storage_mut().set_capacity(None);
        ds.grant(&alice, &["Doctor@MedOrg"]).expect("writes resume");
        assert!(!ds.degraded());
    }
    let (status, _, body) = fetch(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"degraded\":false"), "{body}");

    server.shutdown();
}

#[test]
fn tracez_returns_a_span_tree() {
    {
        let _root = mabe_trace::Span::root("obs.e2e");
        let _child = mabe_trace::Span::child("obs.e2e.step");
    }
    let server = mabe_obs::ObsServer::bind("127.0.0.1:0", Vec::new()).expect("bind");
    let (status, _, body) = fetch(server.addr(), "/tracez?n=512");
    assert!(status.contains("200"), "{status}");
    let doc = json::parse(&body).expect("tracez is JSON");
    assert_eq!(
        doc.get("format").and_then(json::Value::as_str),
        Some("mabe-tracez/v1")
    );
    assert!(body.contains("obs.e2e"), "recorded span visible in tracez");
    server.shutdown();
}

#[test]
fn throughput_workload_profiles_at_least_ten_distinct_call_paths() {
    // The acceptance bar for the span profiler: one real throughput
    // measurement must yield a folded profile with >= 10 distinct
    // call paths (a flamegraph with actual depth, not a stub).
    let row = mabe_bench::throughput::measure(2, 3);
    assert_eq!((row.ok_reads, row.failed_reads, row.wrong_reads), (6, 0, 0));

    // Set-up and the revocation trace under `bench.throughput`; each
    // client roots its own `bench.client` trace.
    let profile = mabe_obs::profiler::capture();
    let bench_paths: Vec<&str> = profile
        .iter()
        .map(|(path, _)| path)
        .filter(|p| p.starts_with("bench.throughput") || p.starts_with("bench.client"))
        .collect();
    assert!(
        bench_paths.len() >= 10,
        "expected >= 10 distinct call paths under the throughput roots, got {}: {:#?}",
        bench_paths.len(),
        bench_paths
    );

    // The folded rendering round-trips every path with a numeric
    // self-time — the exact format flamegraph.pl / inferno consume.
    let folded = profile.folded();
    for line in folded.lines() {
        let (path, self_us) = line.rsplit_once(' ').expect("`stack self_us` lines");
        assert!(!path.is_empty());
        self_us.parse::<u64>().expect("numeric self time");
    }
    assert!(folded.contains("bench.client;durable.read;cloud.read;server.fetch"));
}
