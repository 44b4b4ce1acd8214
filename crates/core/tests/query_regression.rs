//! Query-path regression suite: the optimized STRQ/TPQ evaluator must
//! return results identical to a naive reference evaluation, serially
//! and in parallel.
//!
//! The reference evaluator answers every query by scanning the whole
//! active set at `t` and filtering by reconstructed position — no TPI,
//! no posting machinery, no workspaces. Because the TPI indexes exactly
//! the reconstructed positions, its rectangle query is a superset of the
//! scan's answer, so after reconstruction filtering the two paths must
//! agree id-for-id. Any pruning bug (posting-key walk, locator grid,
//! sealed key windows, bitset union) shows up here as a missing or extra
//! id.

use ppq_core::query::{precision_recall, QueryEngine, QueryWorkspace, ReconIndex};
use ppq_core::{PpqConfig, PpqTrajectory, Variant};
use ppq_geo::Point;
use ppq_tpi::Tpi;
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::{Dataset, TrajId};

/// The same summary with its TPI hidden: `QueryEngine` then falls back
/// to scanning the active set — the naive reference path.
struct NoIndex<'a, S: ReconIndex>(&'a S);

impl<S: ReconIndex> ReconIndex for NoIndex<'_, S> {
    fn recon(&self, id: TrajId, t: u32) -> Option<Point> {
        self.0.recon(id, t)
    }
    fn index(&self) -> Option<&Tpi> {
        None
    }
    fn search_radius(&self) -> f64 {
        self.0.search_radius()
    }
}

/// Seeded random workload: true trajectory points plus deliberate misses
/// (points between trajectories and outside the extent).
fn workload(data: &Dataset, n: usize, seed: u64) -> Vec<(u32, Point)> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let trajs = data.trajectories();
    (0..n)
        .map(|i| {
            let traj = &trajs[next() as usize % trajs.len()];
            let off = next() as usize % traj.len();
            let t = traj.start + off as u32;
            let p = traj.points[off];
            match i % 4 {
                // On-point query (non-empty truth).
                0 | 1 => (t, p),
                // Jittered query (may straddle cells).
                2 => (t, Point::new(p.x + 0.0007, p.y - 0.0004)),
                // Far miss.
                _ => (t, Point::new(p.x + 1.5, p.y + 1.5)),
            }
        })
        .collect()
}

fn build(seed: u64) -> (Dataset, PpqTrajectory) {
    let data = porto_like(&PortoConfig {
        trajectories: 40,
        mean_len: 50,
        min_len: 30,
        start_spread: 10,
        seed,
    });
    let built = PpqTrajectory::build(&data, &PpqConfig::variant(Variant::PpqS, 0.1));
    (data, built)
}

#[test]
fn optimized_strq_matches_naive_reference() {
    let (data, built) = build(0xC0FFEE);
    let gc = built.config().tpi.pi.gc;
    let summary = built.summary();
    let optimized = QueryEngine::new(summary, &data, gc);
    let naive_index = NoIndex(summary);
    let naive = QueryEngine::new(&naive_index, &data, gc);

    let queries = workload(&data, 200, 7);
    let mut ws = QueryWorkspace::new();
    let mut nonempty = 0;
    for (t, p) in &queries {
        let got = optimized.strq_with(*t, p, &mut ws);
        let want = naive.strq(*t, p);
        assert_eq!(got, want, "STRQ mismatch at t={t} p={p:?}");
        nonempty += usize::from(!want.truth.is_empty());
        // Sanity: the local-search guarantee survives optimization.
        let (_, recall) = precision_recall(&got.candidates, &got.truth);
        assert_eq!(recall, 1.0);
    }
    assert!(nonempty > 50, "workload too easy: {nonempty} non-empty");
}

#[test]
fn optimized_tpq_matches_naive_reference() {
    let (data, built) = build(0xBEEF);
    let gc = built.config().tpi.pi.gc;
    let summary = built.summary();
    let optimized = QueryEngine::new(summary, &data, gc);
    let naive_index = NoIndex(summary);
    let naive = QueryEngine::new(&naive_index, &data, gc);

    let mut ws = QueryWorkspace::new();
    for (t, p) in workload(&data, 60, 11) {
        let got = optimized.tpq_with(t, &p, 8, &mut ws);
        let want = naive.tpq(t, &p, 8);
        assert_eq!(got, want, "TPQ mismatch at t={t}");
    }
}

#[test]
fn batch_matches_sequential_at_any_thread_count() {
    let (data, built) = build(0xF00D);
    let gc = built.config().tpi.pi.gc;
    let engine = QueryEngine::new(built.summary(), &data, gc);
    let queries = workload(&data, 150, 23);

    // Sequential loop with one long-lived workspace.
    let mut ws = QueryWorkspace::new();
    let sequential: Vec<_> = queries
        .iter()
        .map(|(t, p)| engine.strq_with(*t, p, &mut ws))
        .collect();

    let serial = rayon::with_thread_count(1, || engine.strq_batch(&queries));
    let parallel = rayon::with_thread_count(4, || engine.strq_batch(&queries));

    assert_eq!(serial.len(), queries.len());
    assert_eq!(serial, sequential, "batch (1 thread) != sequential loop");
    assert_eq!(serial, parallel, "1-thread batch != 4-thread batch");

    let tpq_serial = rayon::with_thread_count(1, || engine.tpq_batch(&queries, 6));
    let tpq_parallel = rayon::with_thread_count(4, || engine.tpq_batch(&queries, 6));
    assert_eq!(tpq_serial, tpq_parallel);
}
