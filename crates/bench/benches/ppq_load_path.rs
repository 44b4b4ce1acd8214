//! Open-loop load harness (`ppq-load`) over the disk and live engines,
//! merged into `BENCH_ppq.json` as the `load_path` section.
//!
//! What it records:
//!
//! 1. **Schedule determinism** — the seeded arrival plan regenerated
//!    under forced 1-thread and 4-thread rayon pools must be
//!    byte-identical ([`Schedule::to_bytes`]); recorded as the
//!    `schedule_deterministic` flag CI gates on, alongside the
//!    schedule's FNV fingerprint for cross-run comparison.
//! 2. **Disk read path** — a read-only STRQ/TPQ mix (Zipf trajectory
//!    popularity + hotspot spatial skew) fired open-loop at the target
//!    rate against [`DiskQueryEngine`] on a freshly written repository.
//!    Latency is scheduled-arrival → completion (coordinated-omission
//!    safe); p50/p99/p999 per class, plus a closed-loop saturation
//!    ceiling.
//! 3. **Live ingest+serve path** — the same query mix with an append
//!    lane: a [`LiveService`] ingests the dataset's time slices (WAL,
//!    folds, auto-compaction, snapshot republish) on the schedule's
//!    append instants while readers query published snapshots.
//!
//! Env knobs: `PPQ_SCALE` (dataset/workload scale), `PPQ_LOAD_RATE`
//! (target ops/s), `PPQ_LOAD_OPS` (ops per run), `PPQ_LOAD_WORKERS`
//! (reader threads). With `PPQ_DATA_DIR` set, the real Porto CSV dump
//! replaces the synthetic dataset (see `ppq_traj::io::real`).

use ppq_bench::report::merge_bench_section;
use ppq_bench::scale;
use ppq_core::{PpqConfig, ShardedSummary, Variant};
use ppq_live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_load::{
    run_open_loop, run_open_loop_scraped, saturation_throughput, ClassStats, MixConfig, OpKind,
    Schedule, ScheduleConfig,
};
use ppq_repo::{DiskQueryEngine, Repo, RepoWriter};
use ppq_traj::io::real::{real_dataset_from_env, RealDataset};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::{Dataset, TrajId};
use std::fmt::Write as _;
use std::sync::Arc;

const PAGE_SIZE_BENCH: usize = 4 << 10;
const SHARDS: usize = 2;
const POOL_PAGES: usize = 128;
const SEED: u64 = 0x10AD_CAFE;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn class_json(stats: &ClassStats) -> String {
    match &stats.latency {
        Some(summary) => format!(
            "{{\"ops\": {}, \"mean_service_us\": {:.3}, \"latency\": {}}}",
            stats.ops,
            stats.mean_service_us,
            summary.json()
        ),
        None => format!("{{\"ops\": {}}}", stats.ops),
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let s = scale();

    // ---- Dataset: real Porto dump behind PPQ_DATA_DIR, else synthetic. --
    let (data, dataset_source) = match real_dataset_from_env(RealDataset::Porto) {
        Some(Ok(d)) => (d, "porto-real"),
        Some(Err(e)) => {
            eprintln!("PPQ_DATA_DIR set but real dataset failed to load ({e}); using synthetic");
            (synthetic(s), "synthetic")
        }
        None => (synthetic(s), "synthetic"),
    };
    let data = Arc::new(data);
    let n_points = data.num_points();
    let slices: Vec<(u32, Vec<(TrajId, ppq_geo::Point)>)> = data
        .time_slices()
        .map(|sl| (sl.t, sl.points.to_vec()))
        .collect();

    let rate = env_f64("PPQ_LOAD_RATE", (2000.0 * s).max(200.0));
    let ops = env_usize("PPQ_LOAD_OPS", ((4000.0 * s).round() as usize).max(400));
    let readers = env_usize("PPQ_LOAD_WORKERS", cores.saturating_sub(1).clamp(1, 4));
    // The live mix cannot schedule more appends than there are slices
    // (slices enter in timestep order, exactly once).
    let append_frac = (0.8 * slices.len() as f64 / ops as f64).min(0.2);

    let read_cfg = ScheduleConfig {
        seed: SEED,
        rate_per_sec: rate,
        ops,
        mix: MixConfig::read_only(0.7, 0.3),
        ..ScheduleConfig::default()
    };
    let live_cfg_sched = ScheduleConfig {
        seed: SEED ^ 1,
        rate_per_sec: rate,
        ops,
        mix: MixConfig {
            strq: (1.0 - append_frac) * 0.7,
            tpq: (1.0 - append_frac) * 0.3,
            append: append_frac,
        },
        ..ScheduleConfig::default()
    };
    eprintln!(
        "load-path dataset: {dataset_source}, {n_points} points, {} trajectories, {} slices; rate {rate} ops/s, {ops} ops, {readers} readers",
        data.num_trajectories(),
        slices.len()
    );

    // ---- 1. Schedule determinism across forced thread counts. -----------
    let read_schedule = Schedule::generate(&data, &read_cfg);
    let live_schedule = Schedule::generate(&data, &live_cfg_sched);
    let schedule_deterministic = {
        let one = rayon::with_thread_count(1, || {
            (
                Schedule::generate(&data, &read_cfg).to_bytes(),
                Schedule::generate(&data, &live_cfg_sched).to_bytes(),
            )
        });
        let four = rayon::with_thread_count(4, || {
            (
                Schedule::generate(&data, &read_cfg).to_bytes(),
                Schedule::generate(&data, &live_cfg_sched).to_bytes(),
            )
        });
        one == four && one.0 == read_schedule.to_bytes() && one.1 == live_schedule.to_bytes()
    };
    assert!(
        schedule_deterministic,
        "schedule generation must be thread-count independent"
    );

    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let gc = ppq.tpi.pi.gc;
    let work_dir = std::env::temp_dir().join(format!("ppq-load-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);

    // ---- 2. Open-loop against the disk-resident engine (read-only). -----
    let summary = ShardedSummary::build(&data, &ppq, SHARDS);
    let repo_dir = work_dir.join("repo");
    RepoWriter::with_page_size(&repo_dir, PAGE_SIZE_BENCH)
        .write_sharded(&summary)
        .expect("write repository");
    let repo = Repo::open(&repo_dir, POOL_PAGES).expect("open repository");
    let disk_engine = DiskQueryEngine::new(&repo, &data, gc);
    let disk_report = run_open_loop(&disk_engine, &read_schedule, readers, || {
        unreachable!("read-only schedule")
    });
    let disk_saturation = saturation_throughput(
        &disk_engine,
        &read_schedule,
        readers,
        (ops / readers.max(1)).clamp(100, 2000),
    );

    // ---- 3. Open-loop against the live ingest+serve service. ------------
    let live_dir = work_dir.join("live");
    let mut live_cfg = LiveConfig::new(ppq.clone(), SHARDS);
    live_cfg.page_size = PAGE_SIZE_BENCH;
    live_cfg.fold_every = 16;
    live_cfg.compact_max_chain = 4;
    let service = Arc::new(
        LiveService::open(&live_dir, live_cfg, data.clone(), 8).expect("open live service"),
    );
    // Folds and compactions run only on an attached worker.
    let worker = service
        .start_maintenance(MaintenanceConfig::default())
        .expect("worker attaches");
    let mut next_slice = 0usize;
    // The scrape lane polls the process-wide metrics registry while the
    // schedule plays — the same closure shape a TCP run uses with
    // `RemoteConn::metrics` (the `ppq_obs_path` bench does exactly
    // that); here the target is in-process, so the registry *is* the
    // server side.
    let (live_report, live_scrape) = run_open_loop_scraped(
        &*service,
        &live_schedule,
        readers,
        || {
            if next_slice < slices.len() {
                let (t, points) = &slices[next_slice];
                service.push_slice(*t, points).expect("in-order append");
                next_slice += 1;
            }
        },
        std::time::Duration::from_millis(50),
        || Some(ppq_obs::snapshot()),
    );
    assert!(
        service.status().last_maintenance_error.is_none(),
        "maintenance must not fail in a fault-free bench run"
    );

    // ---- Server-vs-client agreement from the scrape. --------------------
    // The engine-side span population: every client STRQ records one
    // `ppq_strq_ns` sample, and every client TPQ records one
    // `ppq_tpq_ns` sample *plus* one `ppq_strq_ns` sample (TPQ runs its
    // selection STRQ through the same entry point). Counts must match
    // exactly; and because the engine span is strictly inside the
    // client's scheduled-arrival → completion window, the engine's TPQ
    // p50 cannot exceed the client's (modulo ≤1.6% histogram
    // quantization on each side).
    let scrape = live_scrape.expect("in-process scrape cannot fail");
    let engine_strq = scrape
        .histogram_count_delta("ppq_strq_ns")
        .expect("strq histogram registered");
    let engine_tpq = scrape
        .histogram_count_delta("ppq_tpq_ns")
        .expect("tpq histogram registered");
    let counts_match = engine_strq == live_report.strq.ops + live_report.tpq.ops
        && engine_tpq == live_report.tpq.ops;
    assert!(
        counts_match,
        "engine span counts diverge from client completions: \
         engine strq {engine_strq} vs client {}+{}, engine tpq {engine_tpq} vs client {}",
        live_report.strq.ops, live_report.tpq.ops, live_report.tpq.ops
    );
    let server_tpq_p50_us = scrape
        .after
        .histogram("ppq_tpq_ns")
        .map_or(0.0, |h| h.p50_ns as f64 / 1_000.0);
    let client_tpq_p50_us = live_report
        .tpq
        .latency
        .as_ref()
        .map_or(f64::INFINITY, |l| l.p50_us);
    let server_not_slower = server_tpq_p50_us <= client_tpq_p50_us * 1.05 + 1.0;
    assert!(
        server_not_slower,
        "engine-side p50 ({server_tpq_p50_us:.1}us) exceeds client-observed p50 \
         ({client_tpq_p50_us:.1}us) — the span is inside the client window, impossible"
    );
    service.publish();
    let live_saturation = saturation_throughput(
        &*service,
        &live_schedule,
        readers,
        (ops / readers.max(1)).clamp(100, 2000),
    );

    // ---- Report. --------------------------------------------------------
    println!(
        "\n=== PPQ load path (cores={cores}, {n_points} points, {ops} ops @ {rate:.0}/s, {readers} readers, {SHARDS} shards) ==="
    );
    println!(
        "schedule: deterministic={schedule_deterministic}, fingerprints {:#018x} / {:#018x}",
        read_schedule.fingerprint(),
        live_schedule.fingerprint()
    );
    for (name, report, saturation) in [
        ("disk", &disk_report, disk_saturation),
        ("live", &live_report, live_saturation),
    ] {
        println!(
            "{name}: offered {:.0}/s achieved {:.0}/s saturation {:.0}/s over {:.2}s",
            report.offered_ops_per_sec,
            report.achieved_ops_per_sec,
            saturation,
            report.wall_seconds
        );
        for (class, stats) in [
            ("strq", &report.strq),
            ("tpq", &report.tpq),
            ("append", &report.append),
        ] {
            if let Some(l) = &stats.latency {
                println!(
                    "  {class}: {} ops, p50 {:.1}us p99 {:.1}us p999 {:.1}us max {:.1}us",
                    stats.ops, l.p50_us, l.p99_us, l.p999_us, l.max_us
                );
            }
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "    \"runner\": {{\"cores\": {cores}, \"profile\": \"release\", \"points\": {n_points}, \"slices\": {}, \"readers\": {readers}, \"shards\": {SHARDS}, \"page_size\": {PAGE_SIZE_BENCH}}},",
        slices.len()
    );
    let _ = writeln!(
        json,
        "    \"note\": \"Open-loop load harness: a precomputed seeded schedule (Poisson arrivals at rate_per_sec, Zipf trajectory popularity, hotspot-cell spatial skew) fired against the disk engine (read-only STRQ/TPQ) and a LiveService (same mix plus an append lane ingesting the dataset's time slices through WAL/fold/compaction with snapshot republish). Latencies are recorded from *scheduled arrival* to completion — the coordinated-omission-safe convention — into log-linear histograms; saturation_ops_per_sec is a closed-loop ceiling measured with zero think time. schedule_deterministic asserts the plan is byte-identical regenerated under forced 1-thread and 4-thread pools.\","
    );
    let _ = writeln!(json, "    \"dataset\": \"{dataset_source}\",");
    let _ = writeln!(
        json,
        "    \"schedule_deterministic\": {schedule_deterministic},"
    );
    let _ = writeln!(
        json,
        "    \"schedule\": {{\"seed\": {SEED}, \"ops\": {ops}, \"rate_per_sec\": {rate:.1}, \"read_fingerprint\": \"{:#018x}\", \"live_fingerprint\": \"{:#018x}\", \"live_appends\": {}}},",
        read_schedule.fingerprint(),
        live_schedule.fingerprint(),
        live_schedule.count(OpKind::Append)
    );
    let _ = writeln!(
        json,
        "    \"observability\": {{\"scrape_samples\": {}, \"engine_strq_samples\": {engine_strq}, \"engine_tpq_samples\": {engine_tpq}, \"client_strq_completions\": {}, \"client_tpq_completions\": {}, \"counts_match\": {counts_match}, \"server_tpq_p50_us\": {server_tpq_p50_us:.3}, \"client_tpq_p50_us\": {client_tpq_p50_us:.3}, \"server_not_slower_than_client\": {server_not_slower}}},",
        scrape.samples, live_report.strq.ops, live_report.tpq.ops
    );
    for (name, report, saturation, trailing_comma) in [
        ("disk", &disk_report, disk_saturation, true),
        ("live", &live_report, live_saturation, false),
    ] {
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(
            json,
            "      \"wall_seconds\": {:.4}, \"offered_ops_per_sec\": {:.1}, \"achieved_ops_per_sec\": {:.1}, \"saturation_ops_per_sec\": {:.1},",
            report.wall_seconds, report.offered_ops_per_sec, report.achieved_ops_per_sec, saturation
        );
        let _ = writeln!(json, "      \"strq\": {},", class_json(&report.strq));
        let _ = writeln!(json, "      \"tpq\": {},", class_json(&report.tpq));
        let _ = writeln!(json, "      \"append\": {}", class_json(&report.append));
        let _ = writeln!(json, "    }}{}", if trailing_comma { "," } else { "" });
    }
    let _ = write!(json, "  }}");

    let out_path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ppq.json").into());
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let merged = merge_bench_section(&existing, "load_path", &json);
    std::fs::write(&out_path, merged).expect("write BENCH_ppq.json");
    eprintln!("wrote {out_path} (load_path section)");

    worker.shutdown().expect("maintenance drain");
    drop(service);
    let _ = std::fs::remove_dir_all(&work_dir);
}

fn synthetic(s: f64) -> Dataset {
    porto_like(&PortoConfig {
        trajectories: ((800.0 * s).round() as usize).max(50),
        mean_len: 60,
        min_len: 30,
        start_spread: 60,
        seed: 0x10AD,
    })
}
