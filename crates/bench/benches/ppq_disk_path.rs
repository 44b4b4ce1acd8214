//! Disk-resident query path: the persistent repository (`ppq-repo`)
//! measured end to end and merged into `BENCH_ppq.json` as the
//! `disk_path` section (companion of `build_path` / `query_path` /
//! `shard_path`).
//!
//! What it records:
//!
//! 1. **Bit-identity** — the `DiskQueryEngine` on a reopened repository
//!    must answer STRQ (all levels) and TPQ (payload bits) exactly like
//!    the in-memory `QueryEngine` on the same summary, and the sharded
//!    repository like the `ShardedQueryEngine`. Checked before anything
//!    is timed; recorded as the `bit_identical` flag CI gates on.
//! 2. **Directory vs scan** — the same single-cell STRQ workload served
//!    by the block directory (one directed page-in per block) and by
//!    `DiskTpi` (scan the period's page run until the block parses
//!    past). The directory must do *strictly fewer* page-ins in total.
//! 3. **Pool sweep** — cold and warm batch latency plus page I/Os per
//!    query at several shared-buffer-pool sizes (Table 9's protocol: a
//!    buffer hit is not an I/O).
//!
//! `PPQ_SCALE` shrinks the dataset/workload for CI smoke runs;
//! `PPQ_BENCH_RUNS` overrides the median-of-3 timing runs.

use ppq_bench::report::{merge_bench_section, time_median};
use ppq_bench::{sample_queries, scale};
use ppq_core::query::{QueryEngine, ShardedQueryEngine, StrqOutcome};
use ppq_core::shard::ShardedSummary;
use ppq_core::{PpqConfig, PpqTrajectory, Variant};
use ppq_geo::Point;
use ppq_repo::{DiskQueryEngine, Repo, RepoWriter};
use ppq_storage::IoStats;
use ppq_tpi::DiskTpi;
use ppq_traj::synth::{porto_like, PortoConfig};
use std::fmt::Write as _;

/// Table 9 at full size uses 1 MiB pages over ~GB datasets; the scaled
/// benchmark keeps the pages-per-structure ratio in that regime with
/// 4 KiB pages (same choice as `table9_disk`).
const PAGE_SIZE_BENCH: usize = 4 << 10;
const TPQ_HORIZON: u32 = 10;
const POOL_SWEEP: [usize; 4] = [0, 8, 32, 128];
const SHARDS: usize = 4;

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn outcomes_bit_identical(a: &[StrqOutcome], b: &[StrqOutcome]) -> bool {
    a == b
}

#[allow(clippy::type_complexity)]
fn tpq_bit_identical(
    a: &[Vec<(u32, Vec<(u32, Point)>)>],
    b: &[Vec<(u32, Vec<(u32, Point)>)>],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(qa, qb)| {
            qa.len() == qb.len()
                && qa.iter().zip(qb).all(|((ia, sa), (ib, sb))| {
                    ia == ib
                        && sa.len() == sb.len()
                        && sa
                            .iter()
                            .zip(sb)
                            .all(|((ta, pa), (tb, pb))| ta == tb && points_bit_eq(pa, pb))
                })
        })
}

struct PoolEntry {
    pool_pages: usize,
    cold_seconds: f64,
    warm_seconds: f64,
    cold_reads: u64,
    warm_reads: u64,
    warm_hits: u64,
}

fn main() {
    let runs: usize = std::env::var("PPQ_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let s = scale();

    let data = porto_like(&PortoConfig {
        trajectories: ((1500.0 * s).round() as usize).max(50),
        mean_len: 45,
        min_len: 30,
        start_spread: 15,
        seed: 0xD15C,
    });
    let n_points = data.num_points();
    let cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = cfg.tpi.pi.gc;
    let n_queries = ((3000.0 * s).round() as usize).max(200);
    let queries = sample_queries(&data, n_queries, 97);
    eprintln!(
        "disk-path dataset: {n_points} points, {} trajectories, {n_queries} queries",
        data.num_trajectories()
    );

    let summary = PpqTrajectory::build(&data, &cfg).into_summary();
    let work_dir = std::env::temp_dir().join(format!("ppq-disk-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    let repo_dir = work_dir.join("repo1");
    let sharded_dir = work_dir.join("repoS");

    // ---- Write + reopen (the persistence round trip itself is timed). --
    let writer = RepoWriter::with_page_size(&repo_dir, PAGE_SIZE_BENCH);
    let (write_seconds, _) = time_median(runs, || writer.write(&summary).unwrap());
    let (open_seconds, _) = time_median(runs, || Repo::open(&repo_dir, 128).unwrap());
    let repo = Repo::open(&repo_dir, 128).unwrap();

    // ---- Bit-identity: disk vs in-memory, unsharded. -------------------
    let mem_engine = QueryEngine::new(&summary, &data, gc);
    let disk_engine = DiskQueryEngine::new(&repo, &data, gc);
    let mut bit_identical = outcomes_bit_identical(
        &disk_engine.strq_batch(&queries).unwrap(),
        &mem_engine.strq_batch(&queries),
    );
    bit_identical &= tpq_bit_identical(
        &disk_engine.tpq_batch(&queries, TPQ_HORIZON).unwrap(),
        &mem_engine.tpq_batch(&queries, TPQ_HORIZON),
    );

    // ---- Bit-identity: sharded repository vs sharded engine. -----------
    let sharded = ShardedSummary::build(&data, &cfg, SHARDS);
    RepoWriter::with_page_size(&sharded_dir, PAGE_SIZE_BENCH)
        .write_sharded(&sharded)
        .unwrap();
    let sharded_repo = Repo::open(&sharded_dir, 128).unwrap();
    let sharded_mem = ShardedQueryEngine::new(&sharded, &data, gc);
    let sharded_disk = DiskQueryEngine::new(&sharded_repo, &data, gc);
    bit_identical &= outcomes_bit_identical(
        &sharded_disk.strq_batch(&queries).unwrap(),
        &sharded_mem.strq_batch(&queries),
    );
    bit_identical &= tpq_bit_identical(
        &sharded_disk.tpq_batch(&queries, TPQ_HORIZON).unwrap(),
        &sharded_mem.tpq_batch(&queries, TPQ_HORIZON),
    );
    assert!(
        bit_identical,
        "disk engines must answer bit-identically to the in-memory engines"
    );

    // ---- Directory vs DiskTpi scan, same single-cell workload. ---------
    let scan_repo = Repo::open(&repo_dir, 0).unwrap(); // pool off on both sides
    let disk_tpi = DiskTpi::create_with(
        summary.tpi().unwrap().clone(),
        &work_dir.join("disktpi.pages"),
        0,
        PAGE_SIZE_BENCH,
    )
    .unwrap();
    let mut directory_reads = 0u64;
    let mut scan_reads = 0u64;
    let (directory_seconds, _) = time_median(runs, || {
        directory_reads = 0;
        for (t, p) in &queries {
            let stats = IoStats::default();
            let _ = scan_repo.query_cell(*t, p, &stats).unwrap();
            directory_reads += stats.reads();
        }
    });
    let (scan_seconds, _) = time_median(runs, || {
        scan_reads = 0;
        for (t, p) in &queries {
            disk_tpi.io_stats().reset();
            let _ = disk_tpi.query(*t, p).unwrap();
            scan_reads += disk_tpi.io_stats().reads();
        }
    });
    assert!(
        directory_reads < scan_reads,
        "block directory must page in strictly fewer pages: {directory_reads} vs {scan_reads}"
    );

    // ---- Pool-size sweep: cold/warm STRQ batches with I/O counts. ------
    let mut pool_entries = Vec::new();
    for pool_pages in POOL_SWEEP {
        let repo = Repo::open(&repo_dir, pool_pages).unwrap();
        let engine = DiskQueryEngine::new(&repo, &data, gc);
        // Cold: every run starts from an empty pool.
        let (cold_seconds, _) = time_median(runs, || {
            repo.clear_cache();
            engine.strq_online_batch(&queries).unwrap()
        });
        repo.io_stats().reset();
        repo.clear_cache();
        let _ = engine.strq_online_batch(&queries).unwrap();
        let cold_reads = repo.io_stats().reads();
        // Warm: pool pre-populated by the cold pass above.
        let (warm_seconds, _) = time_median(runs, || engine.strq_online_batch(&queries).unwrap());
        repo.io_stats().reset();
        let _ = engine.strq_online_batch(&queries).unwrap();
        let warm_reads = repo.io_stats().reads();
        let warm_hits = repo.io_stats().buffer_hits();
        pool_entries.push(PoolEntry {
            pool_pages,
            cold_seconds,
            warm_seconds,
            cold_reads,
            warm_reads,
            warm_hits,
        });
    }

    // ---- Report. -------------------------------------------------------
    println!(
        "\n=== PPQ disk path (runs={runs}, cores={cores}, {n_points} points, {n_queries} queries, {} B pages) ===",
        PAGE_SIZE_BENCH
    );
    println!(
        "repository: {} pages, {} blocks, write {:.4}s, open {:.4}s, bit-identical: {bit_identical}",
        repo.total_pages(),
        repo.shard(0).directory().num_blocks(),
        write_seconds,
        open_seconds
    );
    println!(
        "single-cell workload: directory {directory_reads} page-ins ({directory_seconds:.4}s) vs DiskTpi scan {scan_reads} ({scan_seconds:.4}s)"
    );
    println!(
        "{:>10} {:>12} {:>12} {:>11} {:>11} {:>10}",
        "pool", "cold(s)", "warm(s)", "cold-reads", "warm-reads", "warm-hits"
    );
    for e in &pool_entries {
        println!(
            "{:>10} {:>12.4} {:>12.4} {:>11} {:>11} {:>10}",
            e.pool_pages, e.cold_seconds, e.warm_seconds, e.cold_reads, e.warm_reads, e.warm_hits
        );
    }
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "    \"runner\": {{\"cores\": {cores}, \"runs\": {runs}, \"profile\": \"release\", \"points\": {n_points}, \"queries\": {n_queries}, \"page_size\": {PAGE_SIZE_BENCH}}},"
    );
    let _ = writeln!(
        json,
        "    \"note\": \"ppq-repo persistence round trip: RepoWriter lays the summary out as manifest + summary/dir/TPI-page segments, Repo::open validates checksums and serves queries through DiskQueryEngine over a shared segmented-LRU buffer pool. bit_identical asserts STRQ outcomes and TPQ payload bits match the in-memory QueryEngine (1 shard) and ShardedQueryEngine ({SHARDS} shards) on the same summaries. The scan comparison runs the same single-cell workload against the sorted block directory (directed page-ins) and DiskTpi (period page-run scan), both with the pool disabled; fewer_ios_than_scan must stay true. The pool sweep reports cold (cleared pool) and warm batch latency with Table 9 I/O accounting (a buffer hit is not an I/O).\","
    );
    let _ = writeln!(json, "    \"bit_identical\": {bit_identical},");
    let _ = writeln!(json, "    \"shard_counts_checked\": [1, {SHARDS}],");
    let _ = writeln!(json, "    \"write_seconds\": {write_seconds:.6},");
    let _ = writeln!(json, "    \"open_seconds\": {open_seconds:.6},");
    let _ = writeln!(json, "    \"repo_pages\": {},", repo.total_pages());
    let _ = writeln!(
        json,
        "    \"directory_blocks\": {},",
        repo.shard(0).directory().num_blocks()
    );
    let _ = writeln!(
        json,
        "    \"directory_resident_bytes\": {},",
        repo.shard(0).directory().size_bytes()
    );
    let _ = writeln!(json, "    \"scan_comparison\": {{");
    let _ = writeln!(json, "      \"directory_page_ins\": {directory_reads},");
    let _ = writeln!(json, "      \"scan_page_ins\": {scan_reads},");
    let _ = writeln!(json, "      \"directory_seconds\": {directory_seconds:.6},");
    let _ = writeln!(json, "      \"scan_seconds\": {scan_seconds:.6},");
    let _ = writeln!(
        json,
        "      \"fewer_ios_than_scan\": {}",
        directory_reads < scan_reads
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"pool_sweep\": [");
    for (i, e) in pool_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"pool_pages\": {},", e.pool_pages);
        let _ = writeln!(json, "        \"cold_seconds\": {:.6},", e.cold_seconds);
        let _ = writeln!(json, "        \"warm_seconds\": {:.6},", e.warm_seconds);
        let _ = writeln!(json, "        \"cold_reads\": {},", e.cold_reads);
        let _ = writeln!(
            json,
            "        \"cold_reads_per_query\": {:.4},",
            e.cold_reads as f64 / n_queries as f64
        );
        let _ = writeln!(json, "        \"warm_reads\": {},", e.warm_reads);
        let _ = writeln!(json, "        \"warm_hits\": {}", e.warm_hits);
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < pool_entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = write!(json, "  }}");

    let out_path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ppq.json").into());
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let merged = merge_bench_section(&existing, "disk_path", &json);
    std::fs::write(&out_path, merged).expect("write BENCH_ppq.json");
    eprintln!("wrote {out_path} (disk_path section)");

    let _ = std::fs::remove_dir_all(&work_dir);
}
