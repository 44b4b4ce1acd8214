//! The wire-level observability contract: a live server under load
//! answers a `Metrics` frame whose counters agree exactly with what the
//! client did — server request counts equal client completions, per
//! class — and the slow-query log captures injected outliers with their
//! attached context. This file is its own test binary (own process), so
//! the process-wide registry holds only what this test produces.

use ppq_core::{PpqConfig, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_server::{RemoteConn, ServerConfig};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::TrajId;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn metrics_frame_agrees_with_client_accounting() {
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
                publish: true,
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
