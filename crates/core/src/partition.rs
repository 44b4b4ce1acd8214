//! Incremental temporal partitioning (paper §3.2.1–3.2.2).
//!
//! At every timestep each active trajectory carries a feature vector —
//! its position (PPQ-S) or its AR(k) coefficients (PPQ-A) — and the
//! partitioner maintains groups such that every member is within `ε_p` of
//! its group's feature centroid (Eqs. 7/8). Between timesteps the three
//! incremental rules of §3.2.2 apply:
//!
//! 1. points keep their previous partition;
//! 2. a partition violating `ε_p` is re-partitioned from scratch (bounded
//!    k-means over just its members);
//! 3. partitions whose centroids are within `ε_p` merge — each partition
//!    participating in at most one merge per step, "as excessive merging
//!    might influence the preciseness of partitioning".
//!
//! New trajectories (no previous assignment) join the nearest partition
//! when within `ε_p`, otherwise they are clustered into fresh partitions.

use crate::ndkmeans::{bounded_kmeans_nd, dist2, Features};
use ppq_traj::TrajId;
use std::collections::HashMap;

/// Per-step partitioning outcome.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Number of partitions after this step (`q`, Figure 8's series).
    pub q: usize,
    /// Partitions dissolved and re-partitioned (rule 2).
    pub repartitioned: usize,
    /// Merges performed (rule 3).
    pub merges: usize,
}

/// The incremental partitioner.
#[derive(Clone, Debug)]
pub struct Partitioner {
    eps_p: f64,
    d: usize,
    grow_step: usize,
    iters: usize,
    seed: u64,
    /// Persistent trajectory → internal partition key.
    assign: HashMap<TrajId, u64>,
    next_key: u64,
    step: u64,
}

impl Partitioner {
    pub fn new(eps_p: f64, d: usize, grow_step: usize, iters: usize, seed: u64) -> Partitioner {
        assert!(eps_p > 0.0 && d > 0);
        Partitioner {
            eps_p,
            d,
            grow_step: grow_step.max(1),
            iters: iters.max(2),
            seed,
            assign: HashMap::new(),
            next_key: 0,
            step: 0,
        }
    }

    fn fresh_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    /// Process one timestep.
    ///
    /// `ids[i]` owns feature row `i` of `features`. Returns dense per-point
    /// partition labels (0..q for this step) and step statistics. The
    /// label → key association is internal; callers only need per-step
    /// labels because prediction coefficients are stored per (step, label).
    pub fn step(&mut self, ids: &[TrajId], features: &Features<'_>) -> (Vec<u32>, StepStats) {
        assert_eq!(ids.len(), features.len());
        self.step += 1;
        let mut stats = StepStats::default();
        if ids.is_empty() {
            return (Vec::new(), stats);
        }
        let d = self.d;
        let eps2 = self.eps_p * self.eps_p;

        // Rule 1: carry assignments forward; collect unassigned rows.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut pool: Vec<usize> = Vec::new();
        for (row, id) in ids.iter().enumerate() {
            match self.assign.get(id) {
                Some(&key) => groups.entry(key).or_default().push(row),
                None => pool.push(row),
            }
        }

        // Rule 2: re-partition any group violating ε_p. Keys are sorted so
        // the processing order (and therefore fresh-key assignment and the
        // merge pass) is deterministic — std HashMap iteration order is
        // randomized per instance.
        let mut keys: Vec<u64> = groups.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let rows = &groups[&key];
            let centroid = centroid_of(rows, features, d);
            let violated = rows
                .iter()
                .any(|&r| dist2(features.row(r), &centroid) > eps2);
            if !violated {
                continue;
            }
            stats.repartitioned += 1;
            let rows = groups.remove(&key).unwrap();
            let member_data: Vec<f64> = rows
                .iter()
                .flat_map(|&r| features.row(r).iter().copied())
                .collect();
            let sub = Features::new(&member_data, d);
            let res = bounded_kmeans_nd(
                &sub,
                self.eps_p,
                self.grow_step,
                self.iters,
                self.seed ^ self.step.wrapping_mul(0x9E37),
            );
            let mut sub_keys: Vec<u64> = Vec::with_capacity(res.q());
            for _ in 0..res.q() {
                sub_keys.push(self.fresh_key());
            }
            for (j, &row) in rows.iter().enumerate() {
                let nk = sub_keys[res.assign[j] as usize];
                groups.entry(nk).or_default().push(row);
            }
        }
        groups.retain(|_, rows| !rows.is_empty());

        // New points: nearest partition within ε_p, else fresh clusters.
        if !pool.is_empty() {
            let mut centroids: Vec<(u64, Vec<f64>)> = groups
                .iter()
                .map(|(&k, rows)| (k, centroid_of(rows, features, d)))
                .collect();
            // Deterministic tie-breaking for equidistant centroids.
            centroids.sort_by_key(|(k, _)| *k);
            let mut leftovers: Vec<usize> = Vec::new();
            for &row in &pool {
                let f = features.row(row);
                let best = centroids
                    .iter()
                    .map(|(k, c)| (*k, dist2(f, c)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                match best {
                    Some((k, dd)) if dd <= eps2 => groups.entry(k).or_default().push(row),
                    _ => leftovers.push(row),
                }
            }
            if !leftovers.is_empty() {
                let data: Vec<f64> = leftovers
                    .iter()
                    .flat_map(|&r| features.row(r).iter().copied())
                    .collect();
                let sub = Features::new(&data, d);
                let res = bounded_kmeans_nd(
                    &sub,
                    self.eps_p,
                    self.grow_step,
                    self.iters,
                    self.seed ^ self.step.wrapping_mul(0xB5297),
                );
                let mut sub_keys: Vec<u64> = Vec::with_capacity(res.q());
                for _ in 0..res.q() {
                    sub_keys.push(self.fresh_key());
                }
                for (j, &row) in leftovers.iter().enumerate() {
                    groups
                        .entry(sub_keys[res.assign[j] as usize])
                        .or_default()
                        .push(row);
                }
            }
        }

        // Rule 3: merge close partitions, each at most once per step.
        let mut entries: Vec<(u64, Vec<usize>, Vec<f64>)> = groups
            .into_iter()
            .map(|(k, rows)| {
                let c = centroid_of(&rows, features, d);
                (k, rows, c)
            })
            .collect();
        entries.sort_by_key(|(k, _, _)| *k); // deterministic order
        let mut merged_into: Vec<Option<usize>> = vec![None; entries.len()];
        let mut took_part: Vec<bool> = vec![false; entries.len()];
        for i in 0..entries.len() {
            if took_part[i] {
                continue;
            }
            for j in (i + 1)..entries.len() {
                if took_part[j] {
                    continue;
                }
                if dist2(&entries[i].2, &entries[j].2) <= eps2 {
                    merged_into[j] = Some(i);
                    took_part[i] = true;
                    took_part[j] = true;
                    stats.merges += 1;
                    break; // partition i participated once
                }
            }
        }
        // Apply merges.
        let mut final_groups: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut final_index: HashMap<usize, usize> = HashMap::new();
        for (i, (k, rows, _)) in entries.iter().enumerate() {
            if merged_into[i].is_none() {
                final_index.insert(i, final_groups.len());
                final_groups.push((*k, rows.clone()));
            }
        }
        for (i, target) in merged_into.iter().enumerate() {
            if let Some(tgt) = target {
                let slot = final_index[tgt];
                let rows = entries[i].1.clone();
                final_groups[slot].1.extend(rows);
            }
        }

        // Produce dense labels and persist assignments.
        let mut labels = vec![0u32; ids.len()];
        for (label, (key, rows)) in final_groups.iter().enumerate() {
            for &row in rows {
                labels[row] = label as u32;
                self.assign.insert(ids[row], *key);
            }
        }
        stats.q = final_groups.len();
        (labels, stats)
    }

    /// Forget trajectories that are no longer active (keeps the map small
    /// on long streams).
    pub fn retire(&mut self, ids: &[TrajId]) {
        for id in ids {
            self.assign.remove(id);
        }
    }

    #[inline]
    pub fn eps_p(&self) -> f64 {
        self.eps_p
    }

    /// The persistent state a resumed stream needs: the live
    /// trajectory → partition-key map (sorted by id so the encoding is
    /// canonical), the fresh-key counter, and the step counter the
    /// per-step k-means seeds are derived from. Constructor parameters
    /// are *not* included — they are a pure function of the pipeline
    /// config.
    pub(crate) fn state(&self) -> (Vec<(TrajId, u64)>, u64, u64) {
        let mut assign: Vec<(TrajId, u64)> = self.assign.iter().map(|(&id, &k)| (id, k)).collect();
        assign.sort_unstable();
        (assign, self.next_key, self.step)
    }

    /// Resume a freshly constructed partitioner from
    /// [`Partitioner::state`]. It then behaves bit-identically to the
    /// original from the next `step` call on.
    pub(crate) fn restore(&mut self, assign: Vec<(TrajId, u64)>, next_key: u64, step: u64) {
        self.assign = assign.into_iter().collect();
        self.next_key = next_key;
        self.step = step;
    }
}

fn centroid_of(rows: &[usize], features: &Features<'_>, d: usize) -> Vec<f64> {
    let mut c = vec![0.0f64; d];
    for &r in rows {
        for (ci, v) in c.iter_mut().zip(features.row(r)) {
            *ci += v;
        }
    }
    let n = rows.len().max(1) as f64;
    c.iter_mut().for_each(|v| *v /= n);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(rows: &[[f64; 2]]) -> Vec<f64> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn initial_step_partitions_by_bound() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 1);
        let data = feats(&[[0.0, 0.0], [0.1, 0.1], [10.0, 10.0], [10.1, 10.0]]);
        let f = Features::new(&data, 2);
        let (labels, stats) = p.step(&[1, 2, 3, 4], &f);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert!(stats.q >= 2);
    }

    #[test]
    fn assignments_sticky_when_stable() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 2);
        let data = feats(&[[0.0, 0.0], [5.0, 5.0]]);
        let f = Features::new(&data, 2);
        let (l1, s1) = p.step(&[1, 2], &f);
        let (l2, s2) = p.step(&[1, 2], &f);
        assert_eq!(l1, l2);
        assert_eq!(s1.q, s2.q);
        assert_eq!(s2.repartitioned, 0);
    }

    #[test]
    fn drifting_member_forces_repartition() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 3);
        let near = feats(&[[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]]);
        let f1 = Features::new(&near, 2);
        let (_, s1) = p.step(&[1, 2, 3], &f1);
        assert_eq!(s1.q, 1);
        // Trajectory 3 drifts far away: its old partition violates ε_p.
        let drifted = feats(&[[0.0, 0.0], [0.2, 0.0], [8.0, 0.0]]);
        let f2 = Features::new(&drifted, 2);
        let (labels, s2) = p.step(&[1, 2, 3], &f2);
        assert!(s2.repartitioned >= 1);
        assert_ne!(labels[0], labels[2]);
        // Everyone within bound of their partition centroid afterwards.
        assert!(s2.q >= 2);
    }

    #[test]
    fn new_trajectory_joins_near_partition() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 4);
        let f1_data = feats(&[[0.0, 0.0], [0.1, 0.0]]);
        let f1 = Features::new(&f1_data, 2);
        p.step(&[1, 2], &f1);
        let f2_data = feats(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.1]]);
        let f2 = Features::new(&f2_data, 2);
        let (labels, stats) = p.step(&[1, 2, 9], &f2);
        assert_eq!(
            labels[0], labels[2],
            "newcomer should join the near partition"
        );
        assert_eq!(stats.q, 1);
    }

    #[test]
    fn far_newcomer_gets_new_partition() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 5);
        let f1_data = feats(&[[0.0, 0.0]]);
        let f1 = Features::new(&f1_data, 2);
        p.step(&[1], &f1);
        let f2_data = feats(&[[0.0, 0.0], [50.0, 50.0]]);
        let f2 = Features::new(&f2_data, 2);
        let (labels, stats) = p.step(&[1, 2], &f2);
        assert_ne!(labels[0], labels[1]);
        assert_eq!(stats.q, 2);
    }

    #[test]
    fn converging_partitions_merge_once() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 6);
        // Three distinct partitions.
        let f1_data = feats(&[[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]);
        let f1 = Features::new(&f1_data, 2);
        let (_, s1) = p.step(&[1, 2, 3], &f1);
        assert_eq!(s1.q, 3);
        // All three converge to the same spot: only ONE merge may happen
        // per step (each partition participates at most once).
        let f2_data = feats(&[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]);
        let f2 = Features::new(&f2_data, 2);
        let (_, s2) = p.step(&[1, 2, 3], &f2);
        assert_eq!(s2.merges, 1, "merge-once rule violated");
        assert_eq!(s2.q, 2);
        // The next step completes the convergence.
        let (_, s3) = p.step(&[1, 2, 3], &f2);
        assert_eq!(s3.q, 1);
    }

    #[test]
    fn retire_forgets() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 7);
        let data = feats(&[[0.0, 0.0]]);
        let f = Features::new(&data, 2);
        p.step(&[1], &f);
        p.retire(&[1]);
        // Re-appearing counts as new (fresh pool) — no panic, one group.
        let (labels, stats) = p.step(&[1], &f);
        assert_eq!(labels, vec![0]);
        assert_eq!(stats.q, 1);
    }

    #[test]
    fn empty_step() {
        let mut p = Partitioner::new(1.0, 2, 2, 8, 8);
        let f = Features::new(&[], 2);
        let (labels, stats) = p.step(&[], &f);
        assert!(labels.is_empty());
        assert_eq!(stats.q, 0);
    }
}
