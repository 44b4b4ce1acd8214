//! Sharding invariants: the guarantees CI's determinism matrix enforces.
//!
//! 1. `ShardedPpqStream` with `S = 1` is **bit-identical** to the
//!    unsharded `PpqStream` — summaries and every query answer level.
//! 2. TPQ **answers are shard-count-invariant**: the matched id set is
//!    the same at every `S` (exact refinement pins it to the ground
//!    truth), and every payload stays within the CQC bound.
//! 3. STRQ **merged candidates equal the union** of the per-shard
//!    candidate sets — no duplicates, no drops.
//! 4. Sharded ingest and batched queries are **bit-identical at any
//!    thread count**, at every `S` in `SHARD_COUNTS` (the CI matrix runs
//!    this whole file under `RAYON_NUM_THREADS=1` and `=4`; the
//!    in-process comparisons below force both counts regardless of the
//!    ambient setting).

use ppq_core::query::{QueryEngine, ShardedQueryEngine, StrqOutcome};
use ppq_core::shard::ShardedSummary;
use ppq_core::{PpqConfig, PpqSummary, PpqTrajectory, Variant};
use ppq_geo::Point;
use ppq_traj::{Dataset, TrajId};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn dataset() -> Dataset {
    ppq_traj::synth::porto_like(&ppq_traj::synth::PortoConfig {
        trajectories: 48,
        mean_len: 50,
        min_len: 30,
        start_spread: 10,
        seed: 0x5AAD,
    })
}

fn config() -> PpqConfig {
    PpqConfig::variant(Variant::PpqS, 0.1)
}

/// Deterministic query workload over true data points.
fn queries(data: &Dataset) -> Vec<(u32, Point)> {
    data.iter_points()
        .step_by(41)
        .map(|(_, t, p)| (t, p))
        .collect()
}

fn build_sharded(data: &Dataset, shards: usize) -> ShardedSummary {
    ShardedSummary::build(data, &config(), shards)
}

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn assert_summaries_bit_identical(a: &ShardedSummary, b: &PpqSummary, data: &Dataset, tag: &str) {
    assert_eq!(a.num_points(), b.num_points(), "{tag}: point counts");
    assert_eq!(a.codebook_len(), b.codebook_len(), "{tag}: codebook");
    assert_eq!(a.breakdown(), b.breakdown(), "{tag}: size breakdown");
    for traj in data.trajectories() {
        for off in 0..traj.len() {
            let t = traj.start + off as u32;
            let pa = a.reconstruct(traj.id, t).unwrap();
            let pb = b.reconstruct(traj.id, t).unwrap();
            assert!(
                points_bit_eq(&pa, &pb),
                "{tag}: reconstruction diverges at traj {} t {t}",
                traj.id
            );
        }
    }
}

#[test]
fn s1_summary_is_bit_identical_to_unsharded() {
    let data = dataset();
    let single = PpqTrajectory::build(&data, &config()).into_summary();
    let sharded = build_sharded(&data, 1);
    assert_summaries_bit_identical(&sharded, &single, &data, "S=1");
}

#[test]
fn s1_queries_are_bit_identical_to_unsharded() {
    let data = dataset();
    let gc = config().tpi.pi.gc;
    let single = PpqTrajectory::build(&data, &config()).into_summary();
    let sharded = build_sharded(&data, 1);
    let engine = QueryEngine::new(&single, &data, gc);
    let sharded_engine = ShardedQueryEngine::new(&sharded, &data, gc);
    let qs = queries(&data);
    let expect: Vec<StrqOutcome> = engine.strq_batch(&qs);
    let got: Vec<StrqOutcome> = sharded_engine.strq_batch(&qs);
    assert_eq!(expect, got, "S=1 STRQ outcomes");
    let expect_tpq = engine.tpq_batch(&qs, 8);
    let got_tpq = sharded_engine.tpq_batch(&qs, 8);
    assert_eq!(expect_tpq.len(), got_tpq.len());
    for (e, g) in expect_tpq.iter().zip(&got_tpq) {
        assert_eq!(e.len(), g.len());
        for ((eid, epath), (gid, gpath)) in e.iter().zip(g) {
            assert_eq!(eid, gid);
            assert_eq!(epath.len(), gpath.len());
            for ((et, ep), (gt, gp)) in epath.iter().zip(gpath) {
                assert_eq!(et, gt);
                assert!(points_bit_eq(ep, gp), "S=1 TPQ payload bits");
            }
        }
    }
}

#[test]
fn tpq_answers_are_shard_count_invariant() {
    let data = dataset();
    let cfg = config();
    let gc = cfg.tpi.pi.gc;
    let bound = cfg.cqc_error_bound();
    let qs = queries(&data);
    let horizon = 6u32;

    let mut id_sets_per_shard_count: Vec<Vec<Vec<TrajId>>> = Vec::new();
    for shards in SHARD_COUNTS {
        let summary = build_sharded(&data, shards);
        let engine = ShardedQueryEngine::new(&summary, &data, gc);
        let results = engine.tpq_batch(&qs, horizon);
        // Payloads always stay within the per-shard CQC bound.
        for (per_query, &(t, _)) in results.iter().zip(&qs) {
            for (id, path) in per_query {
                assert!(!path.is_empty(), "S={shards}: empty TPQ payload");
                assert_eq!(path[0].0, t, "S={shards}: payload must start at t");
                for (tt, rp) in path {
                    let truth = data.trajectory(*id).at(*tt).expect("active");
                    assert!(
                        truth.dist(rp) <= bound + 1e-12,
                        "S={shards}: payload breaks the CQC bound at traj {id} t {tt}"
                    );
                }
            }
        }
        id_sets_per_shard_count.push(
            results
                .iter()
                .map(|r| r.iter().map(|(id, _)| *id).collect())
                .collect(),
        );
    }
    // The matched id sets are identical at every shard count (with CQC,
    // exact refinement returns exactly the ground truth).
    for (i, sets) in id_sets_per_shard_count.iter().enumerate().skip(1) {
        assert_eq!(
            &id_sets_per_shard_count[0], sets,
            "TPQ id sets differ between S={} and S={}",
            SHARD_COUNTS[0], SHARD_COUNTS[i]
        );
    }
}

#[test]
fn strq_merge_equals_union_of_per_shard_candidates() {
    let data = dataset();
    let gc = config().tpi.pi.gc;
    for shards in [2usize, 4, 8] {
        let summary = build_sharded(&data, shards);
        let engine = ShardedQueryEngine::new(&summary, &data, gc);
        for (t, p) in queries(&data) {
            let merged = engine.strq(t, &p);
            // Naive union of the independent per-shard answers.
            let mut expected: Vec<TrajId> = (0..shards)
                .flat_map(|i| engine.shard_engine(i).strq(t, &p).candidates)
                .collect();
            expected.sort_unstable();
            let deduped_len = {
                let mut d = expected.clone();
                d.dedup();
                d.len()
            };
            assert_eq!(
                deduped_len,
                expected.len(),
                "S={shards}: shards must own disjoint id sets"
            );
            assert_eq!(
                merged.candidates, expected,
                "S={shards}: merged candidates != union at t={t}"
            );
            // No duplicates in the merged list (strictly increasing).
            assert!(
                merged.candidates.windows(2).all(|w| w[0] < w[1]),
                "S={shards}: merged candidates not strictly sorted"
            );
            assert_eq!(merged.visited, merged.candidates.len());
            // Every shard's exact answers survive the merge.
            for i in 0..shards {
                for id in engine.shard_engine(i).strq(t, &p).exact {
                    assert!(merged.exact.contains(&id), "S={shards}: dropped exact id");
                }
            }
        }
    }
}

#[test]
fn sharded_local_search_keeps_recall_one() {
    let data = dataset();
    let gc = config().tpi.pi.gc;
    for shards in SHARD_COUNTS {
        let summary = build_sharded(&data, shards);
        let engine = ShardedQueryEngine::new(&summary, &data, gc);
        for (t, p) in queries(&data) {
            let out = engine.strq(t, &p);
            let (_, recall) = ppq_core::query::precision_recall(&out.candidates, &out.truth);
            assert_eq!(recall, 1.0, "S={shards}: candidates missed a truth id");
            assert_eq!(out.exact, out.truth, "S={shards}: exact answer imperfect");
        }
    }
}

#[test]
fn sharded_ingest_is_thread_count_invariant() {
    let data = dataset();
    for shards in SHARD_COUNTS {
        let serial = rayon::with_thread_count(1, || build_sharded(&data, shards));
        let parallel = rayon::with_thread_count(4, || build_sharded(&data, shards));
        assert_eq!(serial.num_points(), parallel.num_points());
        assert_eq!(serial.codebook_len(), parallel.codebook_len());
        assert_eq!(serial.breakdown(), parallel.breakdown());
        for traj in data.trajectories() {
            for off in 0..traj.len() {
                let t = traj.start + off as u32;
                let a = serial.reconstruct(traj.id, t).unwrap();
                let b = parallel.reconstruct(traj.id, t).unwrap();
                assert!(
                    points_bit_eq(&a, &b),
                    "S={shards}: thread-count divergence at traj {} t {t}",
                    traj.id
                );
            }
        }
    }
}

#[test]
fn sharded_batch_queries_are_thread_count_invariant() {
    let data = dataset();
    let gc = config().tpi.pi.gc;
    let qs = queries(&data);
    for shards in SHARD_COUNTS {
        let summary = build_sharded(&data, shards);
        let engine = ShardedQueryEngine::new(&summary, &data, gc);
        let serial = rayon::with_thread_count(1, || engine.strq_batch(&qs));
        let parallel = rayon::with_thread_count(4, || engine.strq_batch(&qs));
        assert_eq!(serial, parallel, "S={shards}: strq_batch thread divergence");
        let serial_tpq = rayon::with_thread_count(1, || engine.tpq_batch(&qs, 5));
        let parallel_tpq = rayon::with_thread_count(4, || engine.tpq_batch(&qs, 5));
        assert_eq!(serial_tpq.len(), parallel_tpq.len());
        for (a, b) in serial_tpq.iter().zip(&parallel_tpq) {
            assert_eq!(a.len(), b.len());
            for ((ida, patha), (idb, pathb)) in a.iter().zip(b) {
                assert_eq!(ida, idb);
                assert_eq!(patha.len(), pathb.len());
                for ((ta, pa), (tb, pb)) in patha.iter().zip(pathb) {
                    assert_eq!(ta, tb);
                    assert!(
                        points_bit_eq(pa, pb),
                        "S={shards}: TPQ payload thread divergence"
                    );
                }
            }
        }
    }
}
