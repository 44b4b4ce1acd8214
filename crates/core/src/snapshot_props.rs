//! Property tests for [`ShardedPpqStream::snapshot`] over random streams.
//!
//! At random cut points a snapshot must be the summary `clone().finish()`
//! would give, must never change afterwards and must equal a batch build
//! over its prefix, and must share — not copy — every coefficient row and
//! every ended trajectory with the next snapshot. Taking snapshots must
//! change neither the stream's resumable-state bytes nor its summaries.

use crate::config::{BuildBudget, PpqConfig, Variant};
use crate::shard::{ShardedPpqStream, ShardedSummary};
use crate::{state, summary_io};
use ppq_traj::synth::{porto_like, PortoConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Blocks of one TPI period: `(region, t, cell, ids)`.
type Blocks = Vec<(u32, u32, u32, Vec<u32>)>;

/// Everything observable of one shard's summary: its canonical bytes,
/// its reconstruction bits, and its index postings.
type ShardPrint = (Vec<u8>, Vec<u64>, Option<Vec<Blocks>>);

fn fingerprint(s: &ShardedSummary) -> Vec<ShardPrint> {
    s.shards()
        .iter()
        .map(|shard| {
            let recon = shard.trajs.iter().flat_map(|r| &r.recon);
            let bits = recon.flat_map(|p| [p.x.to_bits(), p.y.to_bits()]);
            let tpi = shard.tpi().map(|tpi| {
                let periods = tpi.periods().iter();
                periods.map(|p| p.pi.export_blocks()).collect()
            });
            (summary_io::to_bytes(shard), bits.collect(), tpi)
        })
        .collect()
}

fn config(per_step_bits: bool, build_index: bool) -> PpqConfig {
    let base = PpqConfig::variant(Variant::PpqS, 0.1);
    PpqConfig {
        budget: if per_step_bits {
            BuildBudget::PerStepBits(4)
        } else {
            base.budget.clone()
        },
        build_index,
        ..base
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_are_shared_prefixes(
        shape in (8usize..40, 12usize..40, 0u32..30, any::<u64>()),
        cut_picks in prop::collection::vec(0u32..1000, 1..5),
        per_step_bits in any::<bool>(),
        build_index in any::<bool>(),
        four_shards in any::<bool>(),
    ) {
        let (trajectories, min_len, start_spread, seed) = shape;
        let data = porto_like(&PortoConfig {
            trajectories,
            mean_len: min_len + 10,
            min_len,
            start_spread,
            seed,
        });
        let slices: Vec<_> = data.time_slices().collect();
        let mut cuts: Vec<usize> = cut_picks
            .iter()
            .map(|&c| 1 + c as usize * slices.len() / 1000)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let cfg = config(per_step_bits, build_index);
        let shards = if four_shards { 4 } else { 1 };

        let mut stream = ShardedPpqStream::new(cfg.clone(), shards);
        let mut quiet = ShardedPpqStream::new(cfg.clone(), shards);
        let mut snaps: Vec<(usize, ShardedSummary, Vec<ShardPrint>)> = Vec::new();
        for (i, s) in slices.iter().enumerate() {
            stream.push_slice(s.t, s.points);
            quiet.push_slice(s.t, s.points);
            if !cuts.contains(&(i + 1)) {
                continue;
            }
            let snap = stream.snapshot();
            let print = fingerprint(&snap);
            // (a) The snapshot is the summary of a closed copy.
            prop_assert!(print == fingerprint(&stream.clone().finish()), "(a) at cut {}", i + 1);
            snaps.push((i + 1, snap, print));
        }

        // (c) Between two snapshots, every coefficient row and every
        // trajectory that ended by the first cut is one allocation.
        for pair in snaps.windows(2) {
            let ((cut, first, _), (_, second, _)) = (&pair[0], &pair[1]);
            let t_cut = slices[cut - 1].t;
            for (a, b) in first.shards().iter().zip(second.shards()) {
                prop_assert_eq!(a.coeffs.len(), *cut);
                for (ra, rb) in a.coeffs.iter().zip(&b.coeffs) {
                    prop_assert!(Arc::ptr_eq(ra, rb), "coefficient row copied");
                }
            }
            for traj in data.trajectories() {
                if traj.start + traj.len() as u32 - 1 > t_cut {
                    continue;
                }
                let shard = first.router().shard_of(traj.id);
                let (a, b) = (first.shard(shard), second.shard(shard));
                let id = traj.id as usize;
                prop_assert!(
                    Arc::ptr_eq(&a.trajs[id], &b.trajs[id]),
                    "ended trajectory {} copied", traj.id
                );
            }
        }

        // (b) Every snapshot is unchanged by the slices pushed after it,
        // and equals a batch build over its prefix.
        for (cut, snap, at_cut) in &snaps {
            prop_assert!(&fingerprint(snap) == at_cut, "(b) snapshot at {} changed", cut);
            let mut batch = ShardedPpqStream::new(cfg.clone(), shards);
            for s in &slices[..*cut] {
                batch.push_slice(s.t, s.points);
            }
            prop_assert!(at_cut == &fingerprint(&batch.finish()), "(b) prefix {}", cut);
        }

        // (d) Publishing left no trace in the stream's state: neither in
        // its resumable part nor in the summaries it resumes from.
        prop_assert!(state::sharded_to_bytes(&stream) == state::sharded_to_bytes(&quiet));
        let summaries = |s: ShardedPpqStream| -> Vec<Vec<u8>> {
            s.finish().shards().iter().map(summary_io::to_bytes).collect()
        };
        prop_assert!(summaries(stream) == summaries(quiet), "(d) summary bytes");
    }
}
