//! The live trajectory service, served over TCP: start a `ppq-server`
//! on a crash-safe [`LiveService`], ingest a synthetic fleet through the
//! wire protocol while the background worker folds/compacts off the
//! ingest path, answer STRQ/TPQ remotely, and shut down gracefully
//! (drain → fold into the chain).
//!
//! ```bash
//! # Self-contained demo (default): loopback server, remote client,
//! # bit-identity check against the in-process service, clean shutdown.
//! cargo run --release --example live_server
//!
//! # Long-running server for external clients:
//! cargo run --release --example live_server -- --serve 127.0.0.1:7878 --secs 30
//!
//! # Same, with a plain-HTTP admin listener for metric scrapers (the CI
//! # server smoke job curls it from outside the process):
//! cargo run --release --example live_server -- --serve 127.0.0.1:7878 --admin 127.0.0.1:9878
//! curl http://127.0.0.1:9878/metrics
//! ```
//!
//! In `--serve` mode the process builds the same synthetic fleet
//! (honoring `PPQ_SCALE`), serves on the given address while ingesting
//! the fleet's time slices in the background, and exits gracefully
//! after `--secs` seconds.

use ppq_trajectory::core::{PpqConfig, Variant};
use ppq_trajectory::geo::Point;
use ppq_trajectory::live::{LiveConfig, LiveService, MaintenanceConfig};
use ppq_trajectory::server::{RemoteConn, ServerConfig, ServerHandle};
use ppq_trajectory::traj::synth::{porto_like, PortoConfig};
use ppq_trajectory::traj::{Dataset, DatasetStats, TrajId};
use std::sync::Arc;
use std::time::Duration;

fn scale() -> f64 {
    std::env::var("PPQ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// The synthetic fleet both modes ingest.
fn service_dataset() -> Dataset {
    porto_like(&PortoConfig {
        trajectories: ((600.0 * scale()).round() as usize).max(40),
        mean_len: 50,
        min_len: 25,
        start_spread: 40,
        seed: 0x5E4E,
    })
}

fn start_server(
    addr: &str,
    data: Arc<Dataset>,
    dir: &std::path::Path,
) -> Result<ServerHandle, Box<dyn std::error::Error>> {
    let ppq = PpqConfig::variant(Variant::PpqS, 0.1);
    let mut cfg = LiveConfig::new(ppq, 2);
    cfg.fold_every = 16;
    cfg.compact_max_chain = 4;
    let _ = std::fs::remove_dir_all(dir);
    let service = Arc::new(LiveService::open(dir, cfg, data, 8)?);
    let server = ppq_trajectory::server::start(
        addr,
        service,
        ServerConfig {
            handler_threads: 4,
            queue_depth: 16,
            poll_interval: Duration::from_millis(25),
            maintenance: Some(MaintenanceConfig {
                tick: Duration::from_millis(5),
                sync_wal: true,
            }),
        },
    )?;
    Ok(server)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--serve") {
        Some(i) => {
            let addr = args.get(i + 1).cloned().unwrap_or("127.0.0.1:7878".into());
            let secs = args
                .iter()
                .position(|a| a == "--secs")
                .and_then(|j| args.get(j + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(30u64);
            let admin = args
                .iter()
                .position(|a| a == "--admin")
                .and_then(|j| args.get(j + 1))
                .cloned();
            serve(&addr, secs, admin.as_deref())
        }
        None => demo(),
    }
}

/// Serve the process metrics page over bare HTTP on `addr`: every
/// connection gets a `200 text/plain` whose body is
/// [`ppq_trajectory::obs::render_text`] — the Prometheus exposition
/// shape, enough for `curl` and any scraper that speaks HTTP/1.0. The
/// listener thread is detached; it lives until the process exits.
fn spawn_admin(addr: &str) -> Result<std::net::SocketAddr, Box<dyn std::error::Error>> {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let body = ppq_trajectory::obs::render_text();
            let header = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            let _ = stream
                .write_all(header.as_bytes())
                .and_then(|()| stream.write_all(body.as_bytes()));
        }
    });
    Ok(bound)
}

/// Long-running mode: serve `addr` for `secs` seconds, ingesting the
/// fleet in the background, then drain and exit.
fn serve(addr: &str, secs: u64, admin: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let data = Arc::new(service_dataset());
    println!("{}", DatasetStats::of(&data).banner("service fleet"));
    let dir = std::env::temp_dir().join(format!("ppq-live-server-{}", std::process::id()));
    let server = start_server(addr, data.clone(), &dir)?;
    println!("serving on {} for {secs}s", server.addr());
    if let Some(admin_addr) = admin {
        let bound = spawn_admin(admin_addr)?;
        println!("admin metrics on http://{bound}/metrics");
    }

    // Background ingest through the service (the transport is for
    // clients; the co-located writer shortcuts straight to the service).
    let service = server.service().clone();
    let slices: Vec<(u32, Vec<(TrajId, Point)>)> = data
        .time_slices()
        .map(|s| (s.t, s.points.to_vec()))
        .collect();
    let ingest = std::thread::spawn(move || {
        for (t, points) in &slices {
            service.push_slice(*t, points).expect("in-order ingest");
            std::thread::sleep(Duration::from_micros(500));
        }
    });

    std::thread::sleep(Duration::from_secs(secs));
    ingest.join().expect("ingest thread");
    let stats = server.stats();
    let wstats = server.worker_stats().expect("worker attached");
    println!(
        "served {} requests ({} shed); background folds={} compactions={} publishes={}",
        stats.requests, stats.shed, wstats.folds, wstats.compactions, wstats.publishes
    );
    server.shutdown()?;
    println!("drained and checkpointed; bye");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Self-contained demo: loopback server, remote ingest + queries,
/// bit-identity against the in-process service, graceful shutdown.
fn demo() -> Result<(), Box<dyn std::error::Error>> {
    let data = Arc::new(service_dataset());
    println!("{}", DatasetStats::of(&data).banner("service fleet"));
    let dir = std::env::temp_dir().join(format!("ppq-live-server-demo-{}", std::process::id()));
    let server = start_server("127.0.0.1:0", data.clone(), &dir)?;
    println!("listening on {}", server.addr());

    // --- Ingest the whole fleet over the wire, slice by slice. ----------
    let mut conn = RemoteConn::connect(server.addr())?;
    let mut last_t = 0;
    for slice in data.time_slices() {
        let next = conn.append(slice.t, slice.points)?;
        assert_eq!(next, slice.t + 1);
        last_t = slice.t;
    }
    let version = conn.publish()?;
    println!(
        "ingested {} slices over TCP; published version {version}",
        last_t + 1
    );

    // --- Query remotely; verify against the in-process service. ---------
    let service = server.service().clone();
    let mut ws = ppq_trajectory::core::query::ShardedQueryWorkspace::new();
    let mut checked = 0usize;
    for (_, t, p) in data.iter_points().step_by(199) {
        let (rv, remote) = conn.strq(t, &p)?;
        let (lv, local) = service.strq(t, &p, &mut ws);
        assert_eq!((rv, lv), (version, version));
        assert_eq!(remote, local, "served STRQ must bit-match in-process");
        let (_, matches) = conn.tpq(t, &p, 8)?;
        let (_, local_matches) = service.tpq(t, &p, 8, &mut ws);
        assert_eq!(matches.len(), local_matches.len());
        checked += 1;
    }
    println!("{checked} remote STRQ/TPQ answers bit-matched the in-process service");

    // --- Health + maintenance placement. --------------------------------
    let stats = conn.stats()?;
    println!(
        "server stats: next_t={:?} version={} wal_pending={} worker_attached={}",
        stats.next_t, stats.published_version, stats.wal_pending, stats.worker_attached
    );
    assert!(stats.worker_attached);
    let wstats = server.worker_stats().expect("worker attached");
    println!(
        "background maintenance: folds={} compactions={} wal_syncs={} publishes={}",
        wstats.folds, wstats.compactions, wstats.wal_syncs, wstats.publishes
    );

    // --- Observability over the wire: the Metrics frame. -----------------
    let snap = conn.metrics()?;
    println!(
        "metrics snapshot over TCP: {} counters, {} gauges, {} histograms, {} slow queries",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.slow_queries.len()
    );
    assert!(snap.counter("ppq_server_requests").unwrap_or(0) > 0);
    assert_eq!(
        snap.counter("ppq_wal_appends"),
        Some(u64::from(last_t) + 1),
        "one WAL append per ingested slice"
    );
    let page = snap.render_text();
    for line in page
        .lines()
        .filter(|l| l.starts_with("ppq_server_requests") || l.starts_with("ppq_strq_ns_count"))
    {
        println!("  {line}");
    }

    // --- Graceful shutdown: drain, fold into the chain. ------------------
    drop(conn);
    server.shutdown()?;
    println!("drained and checkpointed; bye");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
