//! The wire-level observability contract: a live server under load
//! answers a `Metrics` frame whose counters agree exactly with what the
//! client did — server request counts equal client completions, per
//! class — and the slow-query log captures injected outliers with their
//! attached context. This file is its own test binary (own process), and
//! its tests run one at a time, each from a reset registry, so the
//! process-wide registry holds only what the running test produces.
//!
//! It also pins the spin-then-block wait's gate through its counters: a
//! lone closed-loop connection spins and hits, and the same loop beside
//! more open connections than cores never spins.

use ppq_core::{PpqConfig, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_server::{RemoteConn, ServerConfig};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::TrajId;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Both tests read process-wide state (the registry and the spin gate's
/// open count), so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn metrics_frame_agrees_with_client_accounting() {
    let _serial = serial();
    ppq_obs::reset();
    let dir = std::env::temp_dir().join(format!("ppq-server-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 40,
        mean_len: 30,
        min_len: 20,
        start_spread: 8,
        seed: 0x0B5,
    }));
    let mut cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    cfg.page_size = 4 << 10;
    cfg.group_commit = 4;
    cfg.fold_every = 8;
    cfg.compact_max_chain = 3;
    let service = Arc::new(LiveService::open(&dir, cfg, data.clone(), 4).expect("open service"));
    let server = ppq_server::start(
        "127.0.0.1:0",
        service,
        ServerConfig {
            handler_threads: 2,
            queue_depth: 8,
            poll_interval: Duration::from_millis(25),
            maintenance: Some(MaintenanceConfig {
                tick: Duration::from_millis(2),
                sync_wal: true,
            }),
        },
    )
    .expect("bind server");
    let addr = server.addr();

    // Every span is an "outlier" under a zero threshold — the injected
    // worst case for the slow-query ring.
    ppq_obs::set_slow_threshold(Some(Duration::ZERO));

    let slices: Vec<(u32, Vec<(TrajId, Point)>)> = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();
    let queries: Vec<(u32, Point)> = data
        .iter_points()
        .step_by(53)
        .map(|(_, t, p)| (t, p))
        .collect();
    assert!(queries.len() >= 10);

    let mut conn = RemoteConn::connect(addr).expect("connect");
    for (t, points) in &slices {
        conn.append(*t, points).expect("in-order ingest");
    }
    let version = conn.publish().expect("publish");
    assert_eq!(version, slices.last().unwrap().0 + 1);
    for &(t, p) in &queries {
        let (_, outcome) = conn.strq(t, &p).expect("remote STRQ");
        let _ = outcome;
        let (_, matches) = conn.tpq(t, &p, 4).expect("remote TPQ");
        let _ = matches;
    }
    // The worker folds and compacts on its own clock. Let it go idle, so
    // the Stats frame and the Metrics snapshot below see the same chain.
    await_idle_worker(server.service());
    let status = conn.stats().expect("stats");

    ppq_obs::set_slow_threshold(None);
    let snap = conn.metrics().expect("metrics frame");

    // ---- Server counters equal client completions, per class. ----
    let strq_n = queries.len() as u64;
    assert_eq!(snap.counter("ppq_server_strq_requests"), Some(strq_n));
    assert_eq!(snap.counter("ppq_server_tpq_requests"), Some(strq_n));
    assert_eq!(
        snap.counter("ppq_server_append_requests"),
        Some(slices.len() as u64)
    );
    assert_eq!(snap.counter("ppq_server_stats_requests"), Some(1));
    assert_eq!(snap.counter("ppq_server_publish_requests"), Some(1));
    assert_eq!(snap.counter("ppq_server_metrics_requests"), Some(1));
    // Total = sum of every request this client sent (the metrics frame
    // itself included — the counter increments before the snapshot).
    let total = slices.len() as u64 + 2 * strq_n + 3;
    assert_eq!(snap.counter("ppq_server_requests"), Some(total));

    // Latency histograms saw exactly one sample per request.
    assert_eq!(snap.histogram("ppq_server_strq_ns").unwrap().count, strq_n);
    assert_eq!(snap.histogram("ppq_server_tpq_ns").unwrap().count, strq_n);
    assert_eq!(
        snap.histogram("ppq_server_append_ns").unwrap().count,
        slices.len() as u64
    );
    for class in ["strq", "tpq", "append"] {
        let name = format!("ppq_server_{class}_ns");
        let h = snap.histogram(&name).unwrap();
        assert!(h.p50_ns > 0 && h.p99_ns > 0, "{name}: empty percentiles");
    }

    // The engine's spans nest inside the server's: one `ppq_strq_ns` per
    // STRQ and one more per TPQ (its selection STRQ), one `ppq_tpq_ns`
    // per TPQ, and no engine TPQ outlasts the request that ran it.
    let engine_tpq = snap.histogram("ppq_tpq_ns").unwrap();
    let server_tpq = snap.histogram("ppq_server_tpq_ns").unwrap();
    assert_eq!(snap.histogram("ppq_strq_ns").unwrap().count, 2 * strq_n);
    assert_eq!(engine_tpq.count, strq_n);
    assert!(
        engine_tpq.p50_ns <= server_tpq.p50_ns && engine_tpq.max_ns <= server_tpq.max_ns,
        "engine TPQ span longer than its server span: {engine_tpq:?} vs {server_tpq:?}"
    );

    // ---- Transport accounting. ----
    assert_eq!(snap.counter("ppq_server_connections_opened"), Some(1));
    assert_eq!(snap.gauge("ppq_server_connections_active"), Some(1));
    assert_eq!(snap.counter("ppq_server_shed"), Some(0));
    assert_eq!(snap.counter("ppq_server_protocol_errors"), Some(0));
    assert!(snap.counter("ppq_server_bytes_in").unwrap() > 0);
    assert!(snap.counter("ppq_server_bytes_out").unwrap() > 0);

    // ---- WAL: one append per ingested slice, pending drained. ----
    assert_eq!(snap.counter("ppq_wal_appends"), Some(slices.len() as u64));
    assert_eq!(
        snap.histogram("ppq_wal_append_ns").unwrap().count,
        slices.len() as u64
    );

    // ---- Publish/version gauges mirror the Stats frame. ----
    assert_eq!(
        snap.gauge("ppq_published_version"),
        Some(u64::from(status.published_version))
    );
    assert_eq!(
        snap.gauge("ppq_chain_generations"),
        Some(u64::from(status.chain_generations))
    );

    // ---- Satellite fields of the Stats frame are live. ----
    assert!(status.chain_generations >= 1);
    assert_eq!(status.maintenance_failures, 0);
    assert_eq!(status.last_maintenance_error, None);
    if let Some(ms) = status.last_fold_unix_ms {
        // Fold stamps are epoch-ms, sane range (after 2020).
        assert!(ms > 1_577_836_800_000);
    }

    // ---- Slow-query log captured the injected outliers. ----
    let server_spans: Vec<_> = snap
        .slow_queries
        .iter()
        .filter(|q| q.name == "server_strq")
        .collect();
    assert!(
        !server_spans.is_empty(),
        "zero-threshold STRQ spans missing from the slow log"
    );
    assert!(
        server_spans.iter().all(|q| q.latency_ns > 0),
        "slow records must carry their latency"
    );

    // ---- A remote dump renders the same exposition format. ----
    let text = snap.render_text();
    assert!(text.contains("# TYPE ppq_server_requests counter"));
    assert!(text.contains("ppq_server_strq_ns{quantile=\"0.5\"}"));
    assert_eq!(text, {
        // Deterministic: rendering the same snapshot twice is identical.
        snap.render_text()
    });

    drop(conn);
    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Block until the service has folded at least once and its chain and
/// WAL backlog stay unchanged over 50 ms, many worker ticks.
fn await_idle_worker(service: &LiveService) {
    let state = || {
        let s = service.status();
        (
            s.chain_generations,
            s.wal_pending,
            s.wal_pending_bytes,
            s.last_fold_unix_ms,
            s.last_compaction_unix_ms,
        )
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut last, mut steady) = (state(), 0);
    while last.0 == 0 || steady < 10 {
        assert!(Instant::now() < deadline, "the worker never went idle");
        std::thread::sleep(Duration::from_millis(5));
        let now = state();
        steady = if now == last { steady + 1 } else { 0 };
        last = now;
    }
}

/// `(hits, misses)` of the spin wait so far in this process.
fn spin_counts() -> (u64, u64) {
    (
        ppq_obs::counter("ppq_wire_spin_hits").get(),
        ppq_obs::counter("ppq_wire_spin_misses").get(),
    )
}

/// Block until the server has closed every connection it served, so
/// their share of the spin gate's open count is gone.
fn await_no_served_connections() {
    let active = ppq_obs::gauge("ppq_server_connections_active");
    let deadline = Instant::now() + Duration::from_secs(10);
    while active.get() > 0 {
        assert!(Instant::now() < deadline, "served connections never closed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn spin_counters_follow_the_gate() {
    let _serial = serial();
    ppq_obs::reset();
    let dir = std::env::temp_dir().join(format!("ppq-server-spin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 40,
        mean_len: 30,
        min_len: 20,
        start_spread: 8,
        seed: 0x5417,
    }));
    // No worker, so nothing but this test's connections counts against
    // the cores.
    let mut cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    cfg.page_size = 4 << 10;
    cfg.fold_every = 0;
    let service = Arc::new(LiveService::open(&dir, cfg, data.clone(), 0).expect("open service"));
    let server = ppq_server::start(
        "127.0.0.1:0",
        service,
        ServerConfig {
            handler_threads: 2,
            queue_depth: 16,
            poll_interval: Duration::from_millis(25),
            maintenance: None,
        },
    )
    .expect("bind server");
    let addr = server.addr();
    assert!(
        ppq_obs::snapshot().counter("ppq_wire_spin_hits").is_some(),
        "a started server registers the spin counters"
    );
    {
        let mut conn = RemoteConn::connect(addr).expect("connect");
        for s in data.time_slices() {
            conn.append(s.t, s.points).expect("in-order ingest");
        }
        conn.publish().expect("publish");
    }
    await_no_served_connections();

    // 200 requests closed loop: one wait per frame on each end. A publish
    // with nothing new is the cheapest request, so even an unoptimized
    // build answers within the budget. Returns `(hits, misses)` over the
    // loop.
    const REQUESTS: u64 = 200;
    let closed_loop = |conn: &mut RemoteConn| {
        let before = spin_counts();
        for _ in 0..REQUESTS {
            conn.publish().expect("publish");
        }
        let after = spin_counts();
        (after.0 - before.0, after.1 - before.1)
    };
    let frames = 2 * REQUESTS;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One connection, served and dialed: two open. A connection's waits
    // stay hot only while its peer answers within the budget, so one
    // descheduled thread on a shared box can cool a loop down; each try
    // starts hot on a fresh connection.
    let mut tries = Vec::new();
    for _ in 0..5 {
        let (hits, misses) = closed_loop(&mut RemoteConn::connect(addr).expect("connect"));
        await_no_served_connections();
        tries.push((hits, misses));
        if cores < 2 || hits * 10 >= frames * 9 {
            break;
        }
    }
    let (hits, misses) = *tries.last().expect("one try");
    if cores >= 2 {
        assert!(
            hits * 10 >= frames * 9,
            "spin (hits, misses) per try over {frames} frames each: {tries:?}"
        );
    } else {
        assert_eq!(
            (hits, misses),
            (0, 0),
            "spun with more connections than cores"
        );
    }

    // `cores` more connections, idle: the same loop must never spin. The
    // looping connection is served first; the idle ones may only queue.
    // One more request ends the server's wait that began before they
    // were dialed.
    let mut conn = RemoteConn::connect(addr).expect("connect");
    conn.stats().expect("stats");
    let idle: Vec<RemoteConn> = (0..cores)
        .map(|_| RemoteConn::connect(addr).expect("connect"))
        .collect();
    conn.stats().expect("stats");
    assert_eq!(
        closed_loop(&mut conn),
        (0, 0),
        "spun with {} connections open on {cores} cores",
        cores + 1
    );

    drop((idle, conn));
    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
