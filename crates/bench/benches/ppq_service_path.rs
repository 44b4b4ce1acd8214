//! The served path (`ppq-server`) under the open-loop harness, merged
//! into `BENCH_ppq.json` as the `service_path` section.
//!
//! What it records:
//!
//! 1. **Round-trip latency per op class** — the same coordinated-
//!    omission-safe open-loop schedules as `load_path`, but every op
//!    crosses the wire protocol: STRQ/TPQ via [`RemoteClient`] worker
//!    connections, appends via a dedicated writer connection — while
//!    the server's background worker folds/compacts/syncs off the
//!    ingest thread.
//! 2. **In-process vs TCP overhead** — the identical read-only schedule
//!    fired at the in-process [`LiveService`] and at the server over
//!    loopback; the p50 delta is the transport's price.
//! 3. **Bit-identity** — after the run, a quiescent pass asks every
//!    sampled query both remotely and in-process at the same published
//!    version and requires the *full* answer structure (all STRQ tiers,
//!    TPQ tracks by f64 bits) to match. Recorded as
//!    `bit_identical_to_inprocess`, which CI gates on.
//! 4. **Maintenance placement** — `maintenance_off_ingest_thread`
//!    asserts background folds actually ran on the attached worker
//!    (CI-gated).
//!
//! With `PPQ_SERVICE_ADDR` set, the bench instead drives an already-
//! running server (the CI server-smoke job starts
//! `examples/live_server.rs --serve`) read-only, and checks answer
//! determinism across independent connections at a stable version.
//! Env knobs otherwise match `ppq_load_path`.

use ppq_bench::report::merge_bench_section;
use ppq_bench::scale;
use ppq_core::query::ShardedQueryWorkspace;
use ppq_core::{PpqConfig, Variant};
use ppq_live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_load::{run_open_loop, ClassStats, MixConfig, OpKind, Schedule, ScheduleConfig};
use ppq_server::{RemoteClient, RemoteConn, ServerConfig};
use ppq_traj::synth::{porto_like, PortoConfig};
use ppq_traj::{Dataset, TrajId};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const PAGE_SIZE_BENCH: usize = 4 << 10;
const SHARDS: usize = 2;
const SEED: u64 = 0x5E4E_CAFE;
const TPQ_HORIZON: u32 = 8;

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

/// The service-shell synthetic dataset — `examples/live_server.rs
/// --serve` builds the identical one, so external-mode queries hit the
/// same slices the server ingested.
pub fn service_dataset(s: f64) -> Dataset {
    porto_like(&PortoConfig {
        trajectories: ((600.0 * s).round() as usize).max(40),
        mean_len: 50,
        min_len: 25,
        start_spread: 40,
        seed: 0x5E4E,
    })
}

fn points_bit_eq(a: &ppq_geo::Point, b: &ppq_geo::Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn tpq_bit_eq(
    a: &[(TrajId, Vec<(u32, ppq_geo::Point)>)],
    b: &[(TrajId, Vec<(u32, ppq_geo::Point)>)],
) -> bool {
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

fn write_section(json: &str) {
    let out_path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ppq.json").into());
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let merged = merge_bench_section(&existing, "service_path", json);
    std::fs::write(&out_path, merged).expect("write BENCH_ppq.json");
    eprintln!("wrote {out_path} (service_path section)");
}

fn main() {
    match std::env::var("PPQ_SERVICE_ADDR") {
        Ok(addr) => external(&addr),
        Err(_) => inprocess(),
    }
}

// --- Default mode: own server over loopback, full contract checks. ----------

fn inprocess() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let s = scale();
    let data = Arc::new(service_dataset(s));
    let slices: Vec<(u32, Vec<(TrajId, ppq_geo::Point)>)> = data
        .time_slices()
        .map(|sl| (sl.t, sl.points.to_vec()))
        .collect();
    let n_points = data.num_points();

    let rate = env_f64("PPQ_LOAD_RATE", (1500.0 * s).max(150.0));
    let ops = env_usize("PPQ_LOAD_OPS", ((3000.0 * s).round() as usize).max(300));
    let readers = env_usize("PPQ_LOAD_WORKERS", cores.saturating_sub(1).clamp(1, 4));
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
    let read_schedule = Schedule::generate(&data, &read_cfg);
    let live_schedule = Schedule::generate(&data, &live_cfg_sched);
    eprintln!(
        "service-path dataset: {n_points} points, {} slices; rate {rate} ops/s, {ops} ops, {readers} readers",
        slices.len()
    );

    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut live_cfg = LiveConfig::new(ppq, SHARDS);
    live_cfg.page_size = PAGE_SIZE_BENCH;
    live_cfg.fold_every = 16;
    live_cfg.compact_max_chain = 4;
    let work_dir = std::env::temp_dir().join(format!("ppq-service-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    let service = Arc::new(
        LiveService::open(&work_dir, live_cfg, data.clone(), 8).expect("open live service"),
    );
    let server = ppq_server::start(
        "127.0.0.1:0",
        service.clone(),
        ServerConfig {
            handler_threads: (readers + 2).min(8),
            queue_depth: 32,
            poll_interval: Duration::from_millis(25),
            maintenance: Some(MaintenanceConfig {
                tick: Duration::from_millis(5),
                sync_wal: true,
                publish: true,
            }),
        },
    )
    .expect("bind loopback server");
    let remote = RemoteClient::new(server.addr()).expect("resolve server addr");

    // ---- 1. Served live path: TCP queries while TCP appends ingest. -----
    let mut writer_conn = RemoteConn::connect(server.addr()).expect("writer connection");
    let mut next_slice = 0usize;
    let tcp_live_report = run_open_loop(&remote, &live_schedule, readers, || {
        if next_slice < slices.len() {
            let (t, points) = &slices[next_slice];
            let acked = writer_conn
                .append(*t, points)
                .expect("remote in-order append");
            assert_eq!(acked, *t + 1);
            next_slice += 1;
        }
    });

    // Finish ingest so both read passes and the bit-identity pass see
    // the full stream at one stable version.
    while next_slice < slices.len() {
        let (t, points) = &slices[next_slice];
        writer_conn
            .append(*t, points)
            .expect("remote in-order append");
        next_slice += 1;
    }
    let final_version = writer_conn.publish().expect("publish");

    // ---- 2. Same read-only schedule: TCP vs in-process. ------------------
    let tcp_read_report = run_open_loop(&remote, &read_schedule, readers, || {
        unreachable!("read-only schedule")
    });
    let inproc_read_report = run_open_loop(&*service, &read_schedule, readers, || {
        unreachable!("read-only schedule")
    });

    // ---- 3. Quiescent bit-identity, remote vs in-process. ----------------
    let queries: Vec<(u32, ppq_geo::Point)> = data
        .iter_points()
        .step_by((n_points / 64).max(1))
        .map(|(_, t, p)| (t, p))
        .collect();
    let mut ws = ShardedQueryWorkspace::new();
    let mut bit_identical = true;
    for &(t, p) in &queries {
        let (rv, remote_strq) = writer_conn.strq(t, &p).expect("remote STRQ");
        let (lv, local_strq) = service.strq(t, &p, &mut ws);
        let (rv2, remote_tpq) = writer_conn.tpq(t, &p, TPQ_HORIZON).expect("remote TPQ");
        let (lv2, local_tpq) = service.tpq(t, &p, TPQ_HORIZON, &mut ws);
        if rv != final_version
            || lv != final_version
            || rv2 != final_version
            || lv2 != final_version
        {
            bit_identical = false;
        }
        if remote_strq != local_strq || !tpq_bit_eq(&remote_tpq, &local_tpq) {
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "served answers must bit-match in-process answers at version {final_version}"
    );

    // ---- 4. Maintenance ran on the worker thread, not the ingest path. ---
    let status = service.status();
    let wstats = server.worker_stats().expect("server owns the worker");
    let maintenance_off_ingest_thread = wstats.folds > 0 && status.worker_attached;
    assert!(
        maintenance_off_ingest_thread,
        "background worker must own maintenance (stats: {wstats:?}, status: {status:?})"
    );
    assert_eq!(
        wstats.maintenance_failures, 0,
        "maintenance failed mid-bench"
    );
    let shed = server.stats().shed;

    // ---- Report. ---------------------------------------------------------
    println!(
        "\n=== PPQ service path (cores={cores}, {n_points} points, {ops} ops @ {rate:.0}/s, {readers} readers, {SHARDS} shards) ==="
    );
    for (name, report) in [
        ("tcp-live", &tcp_live_report),
        ("tcp-read", &tcp_read_report),
        ("inproc-read", &inproc_read_report),
    ] {
        println!(
            "{name}: offered {:.0}/s achieved {:.0}/s over {:.2}s",
            report.offered_ops_per_sec, report.achieved_ops_per_sec, report.wall_seconds
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
    let overhead = |remote: &ClassStats, local: &ClassStats| -> f64 {
        match (&remote.latency, &local.latency) {
            (Some(r), Some(l)) => r.p50_us - l.p50_us,
            _ => 0.0,
        }
    };
    let strq_overhead = overhead(&tcp_read_report.strq, &inproc_read_report.strq);
    let tpq_overhead = overhead(&tcp_read_report.tpq, &inproc_read_report.tpq);
    println!(
        "transport overhead p50: strq {strq_overhead:+.1}us, tpq {tpq_overhead:+.1}us; \
         bit_identical_to_inprocess=true, maintenance folds={} compactions={}, shed={shed}",
        wstats.folds, wstats.compactions
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "    \"runner\": {{\"cores\": {cores}, \"profile\": \"release\", \"points\": {n_points}, \"slices\": {}, \"readers\": {readers}, \"shards\": {SHARDS}, \"page_size\": {PAGE_SIZE_BENCH}}},",
        slices.len()
    );
    let _ = writeln!(
        json,
        "    \"note\": \"Service shell over loopback TCP: the open-loop harness drives the wire protocol end to end (length-prefixed frames, handler thread pool) while a dedicated writer connection ingests the dataset's slices and the background maintenance worker folds/compacts/syncs off the ingest thread. tcp_live is the served ingest+query mix; tcp_read and inproc_read fire the identical read-only schedule at the server and at the in-process LiveService, so transport_overhead_p50_us is the wire's price. bit_identical_to_inprocess: after ingest, every sampled query was asked remotely and in-process at the same published version and compared on the full answer structure (all STRQ tiers, TPQ tracks by f64 bits). maintenance_off_ingest_thread: background folds ran on the attached worker.\","
    );
    let _ = writeln!(json, "    \"mode\": \"inprocess\",");
    let _ = writeln!(
        json,
        "    \"schedule\": {{\"seed\": {SEED}, \"ops\": {ops}, \"rate_per_sec\": {rate:.1}, \"read_fingerprint\": \"{:#018x}\", \"live_fingerprint\": \"{:#018x}\", \"live_appends\": {}}},",
        read_schedule.fingerprint(),
        live_schedule.fingerprint(),
        live_schedule.count(OpKind::Append)
    );
    let _ = writeln!(json, "    \"bit_identical_to_inprocess\": true,");
    let _ = writeln!(json, "    \"maintenance_off_ingest_thread\": true,");
    let _ = writeln!(
        json,
        "    \"maintenance\": {{\"folds\": {}, \"compactions\": {}, \"wal_syncs\": {}, \"publishes\": {}, \"failures\": {}}},",
        wstats.folds, wstats.compactions, wstats.wal_syncs, wstats.publishes, wstats.maintenance_failures
    );
    let _ = writeln!(
        json,
        "    \"transport\": {{\"requests\": {}, \"shed\": {shed}, \"overhead_p50_us\": {{\"strq\": {strq_overhead:.3}, \"tpq\": {tpq_overhead:.3}}}}},",
        server.stats().requests
    );
    for (name, report, trailing_comma) in [
        ("tcp_live", &tcp_live_report, true),
        ("tcp_read", &tcp_read_report, true),
        ("inproc_read", &inproc_read_report, false),
    ] {
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(
            json,
            "      \"wall_seconds\": {:.4}, \"offered_ops_per_sec\": {:.1}, \"achieved_ops_per_sec\": {:.1},",
            report.wall_seconds, report.offered_ops_per_sec, report.achieved_ops_per_sec
        );
        let _ = writeln!(json, "      \"strq\": {},", class_json(&report.strq));
        let _ = writeln!(json, "      \"tpq\": {},", class_json(&report.tpq));
        let _ = writeln!(json, "      \"append\": {}", class_json(&report.append));
        let _ = writeln!(json, "    }}{}", if trailing_comma { "," } else { "" });
    }
    let _ = write!(json, "  }}");
    write_section(&json);

    drop(writer_conn);
    server.shutdown().expect("graceful server shutdown");
    let _ = std::fs::remove_dir_all(&work_dir);
}

// --- External mode: drive an already-running server (CI server smoke). ------

fn external(addr: &str) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let s = scale();
    let data = Arc::new(service_dataset(s));
    let rate = env_f64("PPQ_LOAD_RATE", (1000.0 * s).max(100.0));
    let ops = env_usize("PPQ_LOAD_OPS", ((2000.0 * s).round() as usize).max(200));
    let readers = env_usize("PPQ_LOAD_WORKERS", cores.saturating_sub(1).clamp(1, 4));

    let read_cfg = ScheduleConfig {
        seed: SEED,
        rate_per_sec: rate,
        ops,
        mix: MixConfig::read_only(0.7, 0.3),
        ..ScheduleConfig::default()
    };
    let schedule = Schedule::generate(&data, &read_cfg);
    let remote = RemoteClient::new(addr).expect("resolve PPQ_SERVICE_ADDR");
    eprintln!(
        "service-path external mode against {addr}: rate {rate} ops/s, {ops} ops, {readers} readers"
    );

    let report = run_open_loop(&remote, &schedule, readers, || {
        unreachable!("read-only schedule")
    });

    // Determinism across connections: at a stable version, two
    // independent connections must get bit-identical answers.
    let queries: Vec<(u32, ppq_geo::Point)> = data
        .iter_points()
        .step_by((data.num_points() / 32).max(1))
        .map(|(_, t, p)| (t, p))
        .collect();
    let mut a = RemoteConn::connect(addr).expect("connect");
    let mut b = RemoteConn::connect(addr).expect("connect");
    let mut deterministic = true;
    for &(t, p) in &queries {
        // Retry while the server is still ingesting (versions differ).
        let mut ok = false;
        for _ in 0..50 {
            let (va, sa) = a.strq(t, &p).expect("remote STRQ");
            let (vb, sb) = b.strq(t, &p).expect("remote STRQ");
            if va == vb {
                ok = sa == sb;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        deterministic &= ok;
    }
    assert!(
        deterministic,
        "independent connections diverged at a stable version"
    );
    let stats = a.stats().expect("remote stats");

    println!(
        "\n=== PPQ service path (external {addr}: {ops} ops @ {rate:.0}/s, {readers} readers) ==="
    );
    println!(
        "achieved {:.0}/s over {:.2}s; server next_t={:?} version={} worker_attached={}",
        report.achieved_ops_per_sec,
        report.wall_seconds,
        stats.next_t,
        stats.published_version,
        stats.worker_attached
    );
    for (class, cs) in [("strq", &report.strq), ("tpq", &report.tpq)] {
        if let Some(l) = &cs.latency {
            println!(
                "  {class}: {} ops, p50 {:.1}us p99 {:.1}us p999 {:.1}us",
                cs.ops, l.p50_us, l.p99_us, l.p999_us
            );
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "    \"runner\": {{\"cores\": {cores}, \"profile\": \"release\", \"readers\": {readers}}},"
    );
    let _ = writeln!(
        json,
        "    \"note\": \"External mode: read-only open-loop run against an already-running ppq-server (PPQ_SERVICE_ADDR), plus a determinism check that two independent connections answer bit-identically at a stable snapshot version.\","
    );
    let _ = writeln!(json, "    \"mode\": \"external\",");
    let _ = writeln!(json, "    \"deterministic_across_connections\": true,");
    let _ = writeln!(
        json,
        "    \"server\": {{\"published_version\": {}, \"worker_attached\": {}}},",
        stats.published_version, stats.worker_attached
    );
    let _ = writeln!(json, "    \"tcp_read\": {{");
    let _ = writeln!(
        json,
        "      \"wall_seconds\": {:.4}, \"offered_ops_per_sec\": {:.1}, \"achieved_ops_per_sec\": {:.1},",
        report.wall_seconds, report.offered_ops_per_sec, report.achieved_ops_per_sec
    );
    let _ = writeln!(json, "      \"strq\": {},", class_json(&report.strq));
    let _ = writeln!(json, "      \"tpq\": {}", class_json(&report.tpq));
    let _ = writeln!(json, "    }}");
    let _ = write!(json, "  }}");
    write_section(&json);
}
