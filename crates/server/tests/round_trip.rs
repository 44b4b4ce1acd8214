//! End-to-end serving contract: answers served **over TCP** while a
//! remote writer ingests (and the background worker folds/compacts)
//! must be bit-identical to a quiescent in-process replay of the slice
//! prefix their snapshot version claims — the network layer adds
//! transport, not semantics. Mirrors `ppq-live`'s
//! `concurrent_consistency` suite, with every hop through the wire
//! protocol. Also covers the accept-edge overload shed (`Busy`).

use ppq_core::query::{ShardedQueryEngine, ShardedQueryWorkspace, StrqOutcome};
use ppq_core::{PpqConfig, ShardedPpqStream, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_server::{ClientError, RemoteConn, ServerConfig, ServerHandle};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::{Dataset, TrajId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 2;
const TPQ_HORIZON: u32 = 8;

type TpqAnswer = Vec<(TrajId, Vec<(u32, Point)>)>;

enum Answer {
    Strq(StrqOutcome),
    Tpq(TpqAnswer),
}

struct Observation {
    version: u32,
    query: (u32, Point),
    answer: Answer,
}

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn tpq_bit_eq(a: &TpqAnswer, b: &TpqAnswer) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ia, sa), (ib, sb))| {
            ia == ib
                && sa.len() == sb.len()
                && sa
                    .iter()
                    .zip(sb)
                    .all(|((ta, pa), (tb, pb))| ta == tb && points_bit_eq(pa, pb))
        })
}

fn start_server(dir: &std::path::Path, publish_every: u64) -> (Arc<Dataset>, ServerHandle) {
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 60,
        mean_len: 45,
        min_len: 30,
        start_spread: 10,
        seed: 0xC0C0,
    }));
    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut cfg = LiveConfig::new(ppq, SHARDS);
    cfg.page_size = 4 << 10;
    cfg.group_commit = 4;
    cfg.fold_every = 8;
    cfg.compact_max_chain = 3;
    let _ = std::fs::remove_dir_all(dir);
    let service =
        Arc::new(LiveService::open(dir, cfg, data.clone(), publish_every).expect("open service"));
    let server = ppq_server::start(
        "127.0.0.1:0",
        service,
        ServerConfig {
            handler_threads: 3,
            queue_depth: 8,
            poll_interval: Duration::from_millis(25),
            maintenance: Some(MaintenanceConfig {
                tick: Duration::from_millis(2),
                sync_wal: true,
            }),
        },
    )
    .expect("bind server");
    (data, server)
}

#[test]
fn served_answers_match_quiescent_replay_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("ppq-server-rt-{}", std::process::id()));
    let (data, server) = start_server(&dir, 4);
    let addr = server.addr();

    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let slices: Vec<(u32, Vec<(TrajId, Point)>)> = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();
    let queries: Vec<(u32, Point)> = data
        .iter_points()
        .step_by(41)
        .map(|(_, t, p)| (t, p))
        .collect();
    assert!(queries.len() >= 20);

    // The worker owns maintenance: it must be attached before any load
    // runs.
    {
        let mut conn = RemoteConn::connect(addr).expect("connect");
        let stats = conn.stats().expect("stats");
        assert!(stats.worker_attached, "maintenance worker not attached");
    }

    let done = AtomicBool::new(false);
    let mut observations: Vec<Observation> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut conn = RemoteConn::connect(addr).expect("writer connect");
            for (i, (t, points)) in slices.iter().enumerate() {
                let next = conn.append(*t, points).expect("in-order remote ingest");
                assert_eq!(next, *t + 1);
                if i % 4 == 0 {
                    std::thread::sleep(Duration::from_micros(300));
                }
            }
            done.store(true, Ordering::Release);
        });

        let readers: Vec<_> = (0..2)
            .map(|r| {
                let queries = &queries;
                let done = &done;
                scope.spawn(move || {
                    let mut conn = RemoteConn::connect(addr).expect("reader connect");
                    let mut out = Vec::new();
                    let mut k = r;
                    while !done.load(Ordering::Acquire) {
                        let (t, p) = queries[k % queries.len()];
                        let (v, strq) = conn.strq(t, &p).expect("remote STRQ");
                        out.push(Observation {
                            version: v,
                            query: (t, p),
                            answer: Answer::Strq(strq),
                        });
                        let (v, tpq) = conn.tpq(t, &p, TPQ_HORIZON).expect("remote TPQ");
                        out.push(Observation {
                            version: v,
                            query: (t, p),
                            answer: Answer::Tpq(tpq),
                        });
                        k += 2;
                        std::thread::yield_now();
                    }
                    out
                })
            })
            .collect();

        writer.join().expect("writer panicked");
        let mut all = Vec::new();
        for r in readers {
            all.extend(r.join().expect("reader panicked"));
        }
        all
    });

    // Anchor: force the final version and query everything once more —
    // and check remote answers equal direct in-process answers at that
    // same version.
    {
        let mut conn = RemoteConn::connect(addr).expect("connect");
        let final_version = conn.publish().expect("publish");
        assert_eq!(final_version, slices.last().unwrap().0 + 1);
        let stats = conn.stats().expect("stats");
        assert_eq!(stats.next_t, Some(final_version));
        assert_eq!(stats.published_version, final_version);
        assert_eq!(stats.maintenance_failures, 0);
        assert_eq!(stats.last_maintenance_error, None);

        let service = server.service();
        let mut ws = ShardedQueryWorkspace::new();
        for &(t, p) in &queries {
            let (v, remote) = conn.strq(t, &p).expect("remote STRQ");
            assert_eq!(v, final_version);
            let (lv, local) = service.strq(t, &p, &mut ws);
            assert_eq!(lv, final_version);
            assert_eq!(remote, local, "served STRQ diverged from in-process");
            observations.push(Observation {
                version: v,
                query: (t, p),
                answer: Answer::Strq(remote),
            });
            let (v, remote) = conn.tpq(t, &p, TPQ_HORIZON).expect("remote TPQ");
            let (lv, local) = service.tpq(t, &p, TPQ_HORIZON, &mut ws);
            assert_eq!((v, lv), (final_version, final_version));
            assert!(
                tpq_bit_eq(&remote, &local),
                "served TPQ diverged from in-process"
            );
            observations.push(Observation {
                version: v,
                query: (t, p),
                answer: Answer::Tpq(remote),
            });
        }
    }

    // The background worker really did the maintenance.
    let wstats = server.worker_stats().expect("server owns the worker");
    assert!(wstats.folds > 0, "no background folds ran: {wstats:?}");
    assert_eq!(wstats.maintenance_failures, 0);

    // ---- Quiescent replay per observed version (bit-identity). ----
    let mut by_version: BTreeMap<u32, Vec<&Observation>> = BTreeMap::new();
    for ob in &observations {
        by_version.entry(ob.version).or_default().push(ob);
    }
    assert!(
        by_version.len() >= 2,
        "expected observations at multiple snapshot versions, got {:?}",
        by_version.keys().collect::<Vec<_>>()
    );

    let grid = server.service().grid().clone();
    for (&version, obs) in &by_version {
        let mut replay = ShardedPpqStream::new(ppq.clone(), SHARDS);
        for (t, points) in slices.iter().filter(|(t, _)| *t < version) {
            replay.push_slice(*t, points);
        }
        let snapshot = replay.snapshot();
        let engine = ShardedQueryEngine::with_grid(&snapshot, &data, grid.clone());
        let mut ws = ShardedQueryWorkspace::new();
        for (i, ob) in obs.iter().enumerate() {
            let (t, p) = ob.query;
            match &ob.answer {
                Answer::Strq(served) => {
                    let replayed = engine.strq_online_with(t, &p, &mut ws);
                    assert_eq!(
                        *served, replayed,
                        "version {version} observation {i}: served STRQ diverged from replay"
                    );
                }
                Answer::Tpq(served) => {
                    let replayed = engine.tpq_with(t, &p, TPQ_HORIZON, &mut ws);
                    assert!(
                        tpq_bit_eq(served, &replayed),
                        "version {version} observation {i}: served TPQ payload diverged"
                    );
                }
            }
        }
    }

    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_with_busy_and_drains() {
    let dir = std::env::temp_dir().join(format!("ppq-server-busy-{}", std::process::id()));
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 10,
        mean_len: 12,
        min_len: 8,
        start_spread: 4,
        seed: 0xBEEF,
    }));
    let cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 1);
    let _ = std::fs::remove_dir_all(&dir);
    let service = Arc::new(LiveService::open(&dir, cfg, data, 1).expect("open service"));
    // One handler, queue depth 1: slot A served, slot B queued, C shed.
    let server = ppq_server::start(
        "127.0.0.1:0",
        service,
        ServerConfig {
            handler_threads: 1,
            queue_depth: 1,
            poll_interval: Duration::from_millis(10),
            maintenance: None,
        },
    )
    .expect("bind server");
    let addr = server.addr();

    // A: claimed by the only handler (proven by a served request).
    let mut a = RemoteConn::connect(addr).expect("connect A");
    a.stats().expect("A is served");
    // B: accepted, sits in the hand-off queue.
    let mut b = RemoteConn::connect(addr).expect("connect B");
    std::thread::sleep(Duration::from_millis(50));
    // C: the bounded queue is full — must be shed with a typed Busy.
    let mut c = RemoteConn::connect(addr).expect("connect C");
    match c.stats() {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy shed, got {other:?}"),
    }

    // Drain: closing A frees the handler; the queued B gets served (the
    // blocking client simply waits until the handler claims it).
    drop(a);
    b.stats().expect("queued connection served after drain");

    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
