//! Graceful-shutdown durability: every slice the server **acknowledged**
//! over the wire must survive `shutdown()` → `LiveRepo::recover`, with
//! the recovered state answering queries bit-identically to an
//! uncrashed in-memory run over the same slices. The config keeps the
//! fold cadence far away and the WAL group-commit batched, so the drain
//! itself — not a lucky mid-run fold — must do the work.

use ppq_core::query::{ShardedQueryEngine, ShardedQueryWorkspace};
use ppq_core::{PpqConfig, ShardedPpqStream, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveRepo, LiveService, MaintenanceConfig};
use ppq_server::{RemoteConn, ServerConfig};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::TrajId;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 2;

#[test]
fn drain_preserves_every_acknowledged_slice() {
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 40,
        mean_len: 30,
        min_len: 20,
        start_spread: 8,
        seed: 0xD1AD,
    }));
    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut cfg = LiveConfig::new(ppq.clone(), SHARDS);
    // No fold can be due during the run; syncs stay batched. Only the
    // shutdown drain moves the acknowledged slices to a checkpoint.
    cfg.fold_every = 1_000_000;
    cfg.group_commit = 64;

    let dir = std::env::temp_dir().join(format!("ppq-server-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service =
        Arc::new(LiveService::open(&dir, cfg.clone(), data.clone(), 4).expect("open service"));
    let server = ppq_server::start(
        "127.0.0.1:0",
        service,
        ServerConfig {
            handler_threads: 2,
            queue_depth: 4,
            poll_interval: Duration::from_millis(25),
            maintenance: Some(MaintenanceConfig {
                tick: Duration::from_millis(5),
                // Leave WAL flushing to group commit: the drain must
                // sync whatever is still pending.
                sync_wal: false,
            }),
        },
    )
    .expect("bind server");
    let addr = server.addr();

    let slices: Vec<(u32, Vec<(TrajId, Point)>)> = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();

    let mut conn = RemoteConn::connect(addr).expect("connect");
    let mut acked = 0u32;
    for (t, points) in &slices {
        let next = conn.append(*t, points).expect("remote ingest");
        assert_eq!(next, *t + 1);
        acked = next;
    }
    drop(conn);

    // Acked ⇒ durable across a graceful shutdown.
    server.shutdown().expect("graceful drain");

    let mut recovered = LiveRepo::recover(&dir, cfg).expect("recover after shutdown");
    assert_eq!(
        recovered.next_t(),
        Some(acked),
        "recovery lost acknowledged slices"
    );
    assert_eq!(
        recovered.wal_pending(),
        0,
        "drain left unsynced WAL records"
    );
    // The drain is a whole maintenance pass: the chain it committed is
    // one the compaction policy leaves alone.
    assert!(
        !recovered.maybe_compact().expect("policy check"),
        "shutdown left work for the compaction policy"
    );

    // The recovered summary answers exactly like an uncrashed in-memory
    // run over the same acknowledged slices.
    let mut replay = ShardedPpqStream::new(ppq.clone(), SHARDS);
    for (t, points) in &slices {
        replay.push_slice(*t, points);
    }
    let expected = replay.snapshot();
    let got = recovered.snapshot();

    let gc = ppq.tpi.pi.gc;
    let bbox = data.bbox().expect("nonempty dataset");
    let grid = ppq_geo::GridSpec::covering(&bbox.inflate(gc), gc);
    let expected_engine = ShardedQueryEngine::with_grid(&expected, &data, grid.clone());
    let got_engine = ShardedQueryEngine::with_grid(&got, &data, grid);
    let mut ws_a = ShardedQueryWorkspace::new();
    let mut ws_b = ShardedQueryWorkspace::new();
    for (_, t, p) in data.iter_points().step_by(37) {
        assert_eq!(
            expected_engine.strq_online_with(t, &p, &mut ws_a),
            got_engine.strq_online_with(t, &p, &mut ws_b),
            "recovered STRQ diverged from uncrashed run at t={t}"
        );
        let ea = expected_engine.tpq_with(t, &p, 8, &mut ws_a);
        let eb = got_engine.tpq_with(t, &p, 8, &mut ws_b);
        assert_eq!(ea.len(), eb.len());
        for ((ia, sa), (ib, sb)) in ea.iter().zip(&eb) {
            assert_eq!(ia, ib);
            assert_eq!(sa.len(), sb.len());
            for ((ta, pa), (tb, pb)) in sa.iter().zip(sb) {
                assert_eq!(ta, tb);
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
