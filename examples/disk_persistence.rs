//! Disk persistence with incremental growth: stream a fleet, persist a
//! mid-stream snapshot as a repository (checksummed manifest +
//! summary/directory/page segments), *append* the rest of the stream as a
//! delta generation, reopen the stitched store and serve STRQ/TPQ from
//! disk with Table 9 I/O accounting, then compact the chain back into a
//! single generation — the §6.5 deployment mode grown into a durable,
//! incrementally-growing store.
//!
//! ```bash
//! cargo run --release --example disk_persistence
//! ```

use ppq_trajectory::core::{PpqConfig, PpqStream, Variant};
use ppq_trajectory::repo::{DiskQueryEngine, DiskQueryWorkspace, Repo, RepoWriter};
use ppq_trajectory::traj::synth::{porto_like, PortoConfig};
use ppq_trajectory::traj::DatasetStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = porto_like(&PortoConfig {
        trajectories: 250,
        mean_len: 100,
        min_len: 30,
        start_spread: 60,
        seed: 1234,
    });
    println!("{}", DatasetStats::of(&fleet).banner("fleet"));

    // Stream the fleet, snapshotting halfway — the streaming deployment's
    // "persist what we have, keep ingesting" point.
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut stream = PpqStream::new(cfg.clone());
    let slices: Vec<_> = fleet.time_slices().collect();
    let half = slices.len() / 2;
    for slice in &slices[..half] {
        stream.push_slice(slice.t, slice.points);
    }
    let snapshot = stream.snapshot();

    // --- Write the snapshot: one directory, atomic manifest swap. ------
    let dir = std::env::temp_dir().join(format!("ppq-example-repo-{}", std::process::id()));
    let writer = RepoWriter::with_page_size(&dir, 64 << 10); // 64 KiB pages for the demo
    let manifest = writer.write(&snapshot)?;
    println!(
        "wrote {} (generation {}, {} shard(s), {} summarised points)",
        dir.display(),
        manifest.generation(),
        manifest.num_shards(),
        snapshot.num_points()
    );

    // --- Keep ingesting, then append only the new window. --------------
    for slice in &slices[half..] {
        stream.push_slice(slice.t, slice.points);
    }
    let full = stream.finish();
    let manifest = writer.append(&full)?;
    let delta = manifest.newest();
    println!(
        "appended generation {} as a delta: {} summary-delta bytes, {} new data pages",
        delta.generation, delta.shards[0].summary_len, delta.shards[0].tpi_pages
    );

    // --- Close: drop every in-memory artifact. The store is durable. ---
    drop(full);
    drop(snapshot);

    // --- Reopen: the chain is stitched into one logical store. ---------
    let repo = Repo::open(&dir, 32)?;
    println!(
        "reopened: {} generations, {} data pages ({:.2} MiB incl. resident directory), {} blocks addressed in {} directory bytes",
        repo.num_generations(),
        repo.total_pages(),
        repo.size_bytes() as f64 / (1 << 20) as f64,
        repo.shard(0).directory().num_blocks(),
        repo.shard(0).directory().size_bytes()
    );

    // --- Query from disk: cold pass, then warm (pool-absorbed) pass. ---
    let gc = cfg.tpi.pi.gc;
    let engine = DiskQueryEngine::new(&repo, &fleet, gc);
    let queries: Vec<(u32, ppq_trajectory::geo::Point)> = fleet
        .trajectories()
        .iter()
        .step_by(7)
        .filter_map(|traj| {
            let t = traj.start + (traj.len() / 2) as u32;
            traj.at(t).map(|p| (t, p))
        })
        .collect();

    let mut ws = DiskQueryWorkspace::new();
    repo.clear_cache();
    repo.io_stats().reset();
    let mut hits = 0usize;
    for (t, p) in &queries {
        hits += usize::from(!engine.strq_online_with(*t, p, &mut ws)?.exact.is_empty());
    }
    println!(
        "cold pass: {} queries, {} answered, {} page reads",
        queries.len(),
        hits,
        repo.io_stats().reads()
    );

    let cold_reads = repo.io_stats().reads();
    for (t, p) in &queries {
        engine.strq_online_with(*t, p, &mut ws)?;
    }
    println!(
        "warm pass: +{} page reads ({} buffer hits) — the shared pool absorbs repeats",
        repo.io_stats().reads() - cold_reads,
        repo.io_stats().buffer_hits()
    );

    // --- TPQ straight off the reopened store. --------------------------
    let (t0, p0) = queries[0];
    let tpq = engine.tpq(t0, &p0, 10)?;
    if let Some((id, sub)) = tpq.first() {
        println!(
            "TPQ at t={t0}: {} match(es); trajectory {id} reproduced for {} steps",
            tpq.len(),
            sub.len()
        );
    }

    // --- Compact: collapse the chain into one fresh base generation. ---
    repo.compact(None)?;
    drop(repo);
    let compacted = Repo::open(&dir, 32)?;
    compacted.io_stats().reset();
    let engine = DiskQueryEngine::new(&compacted, &fleet, gc);
    let mut compacted_hits = 0usize;
    for (t, p) in &queries {
        compacted_hits += usize::from(!engine.strq_online_with(*t, p, &mut ws)?.exact.is_empty());
    }
    assert_eq!(compacted_hits, hits, "compaction must not change answers");
    println!(
        "compacted: {} generation(s), {} data pages, same {} answers in {} cold page reads",
        compacted.num_generations(),
        compacted.total_pages(),
        compacted_hits,
        compacted.io_stats().reads()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
