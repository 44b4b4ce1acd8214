//! Concurrent-consistency of serve-during-ingest (satellite of the load
//! harness PR): STRQ/TPQ answers served by [`LiveService`] *while* a
//! writer ingests and the maintenance worker folds and compacts off the
//! writer lock must match a quiescent replay of the acknowledged slice
//! prefix the answer's snapshot version claims.
//!
//! The protocol: every served answer is stamped with its snapshot
//! version `v` (= the stream's `next_t` at publish). After the run, for
//! each observed version we rebuild the pipeline state from scratch —
//! push exactly the slices with `t < v` into a fresh
//! [`ShardedPpqStream`] — and re-ask the same queries through the same
//! engine constructor on the same canonical grid. Bit-equality then
//! proves two things at once:
//!
//! * **no torn reads** — a snapshot never exposes a half-applied slice
//!   (otherwise its answers could not equal any whole-prefix replay);
//! * **no uncommitted answers** — nothing from slices at `t >= v` leaks
//!   in (the replay simply does not contain them).
//!
//! The CI determinism matrix runs this at `RAYON_NUM_THREADS=1` and
//! `=4`; the std-thread interleavings differ, the answers must not.

use ppq_core::query::{ShardedQueryEngine, ShardedQueryWorkspace, StrqOutcome};
use ppq_core::{PpqConfig, ShardedPpqStream, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::TrajId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SHARDS: usize = 2;
const TPQ_HORIZON: u32 = 8;

type TpqAnswer = Vec<(TrajId, Vec<(u32, Point)>)>;

/// One answer served during ingest, stamped with its snapshot version.
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

#[test]
fn answers_during_ingest_match_quiescent_replay() {
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 60,
        mean_len: 45,
        min_len: 30,
        start_spread: 10,
        seed: 0xC0C0,
    }));
    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut cfg = LiveConfig::new(ppq.clone(), SHARDS);
    cfg.page_size = 4 << 10;
    cfg.group_commit = 4;
    // Aggressive maintenance so folds AND compactions run while queries
    // are in flight.
    cfg.fold_every = 8;
    cfg.compact_max_chain = 3;

    let dir = std::env::temp_dir().join(format!("ppq-concurrency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Arc::new(LiveService::open(&dir, cfg, data.clone(), 4).expect("open service"));
    // A 1 ms worker folds and compacts off the writer lock while the
    // readers run: the contract is checked against that path.
    let worker = service
        .start_maintenance(MaintenanceConfig {
            tick: std::time::Duration::from_millis(1),
            sync_wal: true,
        })
        .expect("worker attaches");

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

    let done = AtomicBool::new(false);
    let mut observations: Vec<Observation> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for (i, (t, points)) in slices.iter().enumerate() {
                service.push_slice(*t, points).expect("in-order ingest");
                if i % 4 == 0 {
                    // Give readers scheduler room at many versions.
                    std::thread::sleep(std::time::Duration::from_micros(300));
                }
            }
            done.store(true, Ordering::Release);
        });

        let readers: Vec<_> = (0..2)
            .map(|r| {
                let queries = &queries;
                let service = &service;
                let done = &done;
                scope.spawn(move || {
                    let mut ws = ShardedQueryWorkspace::new();
                    let mut out = Vec::new();
                    let mut k = r; // offset interleaves the two readers
                    while !done.load(Ordering::Acquire) {
                        let (t, p) = queries[k % queries.len()];
                        let (v, strq) = service.strq(t, &p, &mut ws);
                        out.push(Observation {
                            version: v,
                            query: (t, p),
                            answer: Answer::Strq(strq),
                        });
                        let (v, tpq) = service.tpq(t, &p, TPQ_HORIZON, &mut ws);
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

    // Ingest finished without maintenance failures, and the worker
    // really folded on the fold_every=8 cadence (bounded wait: the last
    // due fold may land just after the writer's final slice).
    for _ in 0..1000 {
        if worker.stats().folds > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let wstats = worker.stats();
    assert!(wstats.folds > 0, "the worker never folded: {wstats:?}");
    assert_eq!(wstats.maintenance_failures, 0);
    let status = service.status();
    assert!(status.last_maintenance_error.is_none());
    assert!(status.next_t.is_some());

    // A final full-version round anchors the test even if the readers
    // lost every race: publish, then query everything once more.
    let final_version = service.publish();
    assert_eq!(final_version, slices.last().unwrap().0 + 1);
    {
        let mut ws = ShardedQueryWorkspace::new();
        for &(t, p) in &queries {
            let (v, strq) = service.strq(t, &p, &mut ws);
            assert_eq!(v, final_version);
            observations.push(Observation {
                version: v,
                query: (t, p),
                answer: Answer::Strq(strq),
            });
            let (v, tpq) = service.tpq(t, &p, TPQ_HORIZON, &mut ws);
            observations.push(Observation {
                version: v,
                query: (t, p),
                answer: Answer::Tpq(tpq),
            });
        }
    }

    // ---- Quiescent replay, one rebuilt prefix per observed version. ----
    let mut by_version: BTreeMap<u32, Vec<&Observation>> = BTreeMap::new();
    for ob in &observations {
        by_version.entry(ob.version).or_default().push(ob);
    }
    assert!(
        by_version.len() >= 2,
        "expected observations at multiple snapshot versions, got {:?}",
        by_version.keys().collect::<Vec<_>>()
    );

    let grid = service.grid().clone();
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
                Answer::Strq(live_answer) => {
                    let replayed = engine.strq_online_with(t, &p, &mut ws);
                    assert_eq!(
                        *live_answer, replayed,
                        "version {version} observation {i}: STRQ diverged from quiescent replay"
                    );
                }
                Answer::Tpq(live_answer) => {
                    let replayed = engine.tpq_with(t, &p, TPQ_HORIZON, &mut ws);
                    assert!(
                        tpq_bit_eq(live_answer, &replayed),
                        "version {version} observation {i}: TPQ payload diverged"
                    );
                }
            }
        }
    }

    worker.shutdown().expect("drain");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
