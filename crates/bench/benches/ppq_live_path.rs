//! Live-ingest path of the crash-safe repository (`ppq-live`), measured
//! end to end and merged into `BENCH_ppq.json` as the `live_path`
//! section (companion of `append_path`).
//!
//! What it records:
//!
//! 1. **Ingest throughput** — the full stream pushed slice by slice
//!    through [`LiveRepo::push_slice`]: every slice WAL-logged
//!    (group-committed fsyncs) and periodically folded into delta
//!    generations with auto-compaction enabled. Slices/s and points/s,
//!    WAL overhead included.
//! 2. **Recovery time** — the process "dies" with a folded chain, a
//!    checkpoint, and an unfolded WAL tail; [`LiveRepo::recover`] is
//!    timed rebuilding the pipeline from checkpoint + tail.
//! 3. **WAL replay throughput** — [`Wal::open_replay`] alone over the
//!    same tail: records and MB per second of raw log decode.
//! 4. **Bit-identity** — the recovered pipeline must match an
//!    uninterrupted in-memory run bit for bit (per-shard summary
//!    serializations), and after a final fold the disk chain must answer
//!    STRQ (all levels) and TPQ (payload bits) exactly like the
//!    in-memory engine over the uninterrupted stream. Recorded as the
//!    `recovery_bit_identical` flag CI gates on.
//!
//! `PPQ_SCALE` shrinks the dataset/workload for CI smoke runs.

use ppq_bench::report::merge_bench_section;
use ppq_bench::{sample_queries, scale};
use ppq_core::query::ShardedQueryEngine;
use ppq_core::shard::ShardedPpqStream;
use ppq_core::summary_io;
use ppq_core::{PpqConfig, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveRepo, Wal, WAL_NAME};
use ppq_repo::{DiskQueryEngine, Repo};
use ppq_traj::synth::{porto_like, PortoConfig};
use std::fmt::Write as _;
use std::time::Instant;

const PAGE_SIZE_BENCH: usize = 4 << 10;
const TPQ_HORIZON: u32 = 10;
const SHARDS: usize = 2;
const POOL_PAGES: usize = 128;
const GROUP_COMMIT: usize = 8;
const FOLD_EVERY: u64 = 16;

fn points_bit_eq(a: &Point, b: &Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
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

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let s = scale();

    let data = porto_like(&PortoConfig {
        trajectories: ((1000.0 * s).round() as usize).max(50),
        mean_len: 45,
        min_len: 30,
        start_spread: 15,
        seed: 0x11FE,
    });
    let n_points = data.num_points();
    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = ppq.tpi.pi.gc;
    let n_queries = ((2000.0 * s).round() as usize).max(200);
    let queries = sample_queries(&data, n_queries, 71);
    let mut cfg = LiveConfig::new(ppq.clone(), SHARDS);
    cfg.page_size = PAGE_SIZE_BENCH;
    cfg.group_commit = GROUP_COMMIT;
    cfg.fold_every = FOLD_EVERY;
    cfg.compact_max_chain = 4;
    let mut slices: Vec<_> = data.time_slices().collect();
    // Recovery must have a real WAL tail to replay: if the last auto-fold
    // would land exactly on the final slice (emptying the log), hold one
    // slice back so a full fold_every-sized tail survives the "crash".
    if slices.len().is_multiple_of(FOLD_EVERY as usize) {
        slices.pop();
    }
    let ingested_points: usize = slices.iter().map(|s| s.points.len()).sum();
    eprintln!(
        "live-path dataset: {n_points} points, {} trajectories, {} slices ingested, {n_queries} queries, {SHARDS} shards",
        data.num_trajectories(),
        slices.len()
    );

    let dir = std::env::temp_dir().join(format!("ppq-live-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Ingest: WAL + periodic folds + auto-compaction. ----------------
    let t = Instant::now();
    {
        let mut live = LiveRepo::recover(&dir, cfg.clone()).expect("fresh live repo");
        for slice in &slices {
            live.push_slice(slice.t, slice.points).expect("push");
            live.maintain_if_due();
            assert!(
                live.last_maintenance_error().is_none(),
                "maintenance must not fail in a fault-free bench run"
            );
        }
        live.sync().expect("final WAL sync");
        // Dropped without a final fold: the unfolded tail is what
        // recovery has to replay.
    }
    let ingest_seconds = t.elapsed().as_secs_f64();

    // ---- Raw WAL replay throughput over the surviving tail. -------------
    let wal_path = dir.join(WAL_NAME);
    let wal_tail_bytes = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    let t = Instant::now();
    let (_, tail_records) = Wal::open_replay(&wal_path, GROUP_COMMIT).expect("replay valid log");
    let wal_replay_seconds = t.elapsed().as_secs_f64();
    let records_replayed = tail_records.len();
    let tail_points: usize = tail_records.iter().map(|r| r.points.len()).sum();
    drop(tail_records);

    // ---- Recovery: checkpoint decode + tail replay into the pipeline. ---
    let t = Instant::now();
    let mut live = LiveRepo::recover(&dir, cfg.clone()).expect("recover");
    let recovery_seconds = t.elapsed().as_secs_f64();

    // ---- Bit-identity vs an uninterrupted in-memory run. ----------------
    let mut control = ShardedPpqStream::new(ppq, SHARDS);
    for slice in &slices {
        control.push_slice(slice.t, slice.points);
    }
    let full = control.finish();
    let recovered = live.snapshot();
    let mut recovery_bit_identical = recovered.shards().len() == full.shards().len()
        && recovered
            .shards()
            .iter()
            .zip(full.shards())
            .all(|(a, b)| summary_io::to_bytes(a) == summary_io::to_bytes(b));

    live.fold().expect("final fold");
    drop(live);
    let repo = Repo::open(&dir, POOL_PAGES).expect("folded chain opens");
    let generations = repo.num_generations();
    let disk = DiskQueryEngine::new(&repo, &data, gc);
    let mem = ShardedQueryEngine::new(&full, &data, gc);
    recovery_bit_identical &= disk.strq_batch(&queries).unwrap() == mem.strq_batch(&queries);
    recovery_bit_identical &= tpq_bit_identical(
        &disk.tpq_batch(&queries, TPQ_HORIZON).unwrap(),
        &mem.tpq_batch(&queries, TPQ_HORIZON),
    );
    assert!(
        recovery_bit_identical,
        "recovered pipeline and folded chain must answer bit-identically to the uninterrupted run"
    );

    assert!(
        records_replayed > 0,
        "recovery must exercise a non-empty WAL tail"
    );
    let slices_per_sec = slices.len() as f64 / ingest_seconds.max(1e-9);
    let points_per_sec = ingested_points as f64 / ingest_seconds.max(1e-9);
    let replay_mb_per_sec = wal_tail_bytes as f64 / 1_048_576.0 / wal_replay_seconds.max(1e-9);

    // ---- Report. --------------------------------------------------------
    println!(
        "\n=== PPQ live path (cores={cores}, {n_points} points, {} slices, {n_queries} queries, {SHARDS} shards) ===",
        slices.len()
    );
    println!(
        "ingest: {ingest_seconds:.4}s ({slices_per_sec:.0} slices/s, {points_per_sec:.0} points/s, group_commit={GROUP_COMMIT}, fold_every={FOLD_EVERY})"
    );
    println!(
        "recovery: {recovery_seconds:.4}s (checkpoint + {records_replayed} tail records, {tail_points} points); raw WAL replay {wal_replay_seconds:.6}s over {wal_tail_bytes} B ({replay_mb_per_sec:.1} MB/s)"
    );
    println!("chain after final fold: {generations} generation(s); recovery_bit_identical: {recovery_bit_identical}");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "    \"runner\": {{\"cores\": {cores}, \"profile\": \"release\", \"points\": {n_points}, \"slices\": {}, \"queries\": {n_queries}, \"page_size\": {PAGE_SIZE_BENCH}, \"shards\": {SHARDS}, \"group_commit\": {GROUP_COMMIT}, \"fold_every\": {FOLD_EVERY}}},",
        slices.len()
    );
    let _ = writeln!(
        json,
        "    \"note\": \"Crash-safe live ingest: every slice is WAL-logged (CRC-sealed records, group-committed fsyncs) before entering the sharded pipeline, folded into delta generations every fold_every slices with auto-compaction, then the process is dropped with an unfolded tail. recovery_seconds times LiveRepo::recover (checkpoint decode + tail replay into the pipeline); wal_replay measures Wal::open_replay alone over the same tail. recovery_bit_identical asserts the recovered pipeline equals an uninterrupted in-memory run bit for bit (per-shard summary serializations) and that the folded chain answers STRQ (all levels) and TPQ (payload bits) exactly like the in-memory engine.\","
    );
    let _ = writeln!(
        json,
        "    \"recovery_bit_identical\": {recovery_bit_identical},"
    );
    let _ = writeln!(json, "    \"ingest\": {{");
    let _ = writeln!(json, "      \"seconds\": {ingest_seconds:.6},");
    let _ = writeln!(json, "      \"slices_per_sec\": {slices_per_sec:.1},");
    let _ = writeln!(json, "      \"points_per_sec\": {points_per_sec:.1}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"recovery\": {{");
    let _ = writeln!(json, "      \"seconds\": {recovery_seconds:.6},");
    let _ = writeln!(json, "      \"tail_records\": {records_replayed},");
    let _ = writeln!(json, "      \"tail_points\": {tail_points},");
    let _ = writeln!(json, "      \"generations_after_fold\": {generations}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"wal_replay\": {{");
    let _ = writeln!(json, "      \"seconds\": {wal_replay_seconds:.6},");
    let _ = writeln!(json, "      \"bytes\": {wal_tail_bytes},");
    let _ = writeln!(json, "      \"mb_per_sec\": {replay_mb_per_sec:.2}");
    let _ = writeln!(json, "    }}");
    let _ = write!(json, "  }}");

    let out_path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ppq.json").into());
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let merged = merge_bench_section(&existing, "live_path", &json);
    std::fs::write(&out_path, merged).expect("write BENCH_ppq.json");
    eprintln!("wrote {out_path} (live_path section)");

    let _ = std::fs::remove_dir_all(&dir);
}
