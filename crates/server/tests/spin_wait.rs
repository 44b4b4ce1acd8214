//! Timing edges of the spin-then-block wait: a frame that arrives in
//! pieces around a spin, a peer that closes while the other end spins,
//! and a shutdown while a client spins. Each must end the way a
//! blocking read would: the same answer, a clean close, a typed error,
//! never a hang. The servers here attach no worker and the tests take
//! turns, so one connection leaves the gate open and the waits spin
//! (on a box with at least two cores).

use ppq_core::query::ShardedQueryWorkspace;
use ppq_core::{PpqConfig, Variant};
use ppq_geo::Point;
use ppq_live::{LiveConfig, LiveService};
use ppq_server::proto::{self, Request, Response};
use ppq_server::{ClientError, RemoteConn, ServerConfig, ServerHandle, SPIN_BUDGET};
use ppq_traj::synth::{porto_like, PortoConfig};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The tests read the process-wide connection gauge and share the spin
/// gate's open count, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const POLL: Duration = Duration::from_millis(10);

/// A worker-less server over a fully ingested service, plus query
/// points that hit trajectories.
fn served(name: &str) -> (PathBuf, ServerHandle, Vec<(u32, Point)>) {
    let dir = std::env::temp_dir().join(format!("ppq-server-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = Arc::new(porto_like(&PortoConfig {
        trajectories: 30,
        mean_len: 25,
        min_len: 15,
        start_spread: 6,
        seed: 0x5B1,
    }));
    let mut cfg = LiveConfig::new(PpqConfig::variant(Variant::PpqS, 0.1), 2);
    cfg.page_size = 4 << 10;
    cfg.fold_every = 0;
    let service = LiveService::open(&dir, cfg, data.clone(), 0).expect("open service");
    for s in data.time_slices() {
        service.push_slice(s.t, s.points).expect("in-order ingest");
    }
    service.publish();
    let server = ppq_server::start(
        "127.0.0.1:0",
        Arc::new(service),
        ServerConfig {
            handler_threads: 2,
            queue_depth: 4,
            poll_interval: POLL,
            maintenance: None,
        },
    )
    .expect("bind server");
    let queries = data
        .iter_points()
        .step_by(17)
        .map(|(_, t, p)| (t, p))
        .collect();
    (dir, server, queries)
}

/// Wait until the server has closed every connection it served.
fn await_no_served_connections() {
    let active = ppq_obs::gauge("ppq_server_connections_active");
    let deadline = Instant::now() + Duration::from_secs(10);
    while active.get() > 0 {
        assert!(
            Instant::now() < deadline,
            "a served connection never closed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_frame_split_around_spins_is_answered_bit_equal() {
    let _serial = serial();
    let (dir, server, queries) = served("split");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let mut ws = ShardedQueryWorkspace::new();
    let gap = 2 * SPIN_BUDGET;
    // Split inside the length prefix, right after it, and mid-payload.
    for (i, split) in [2, 4, 13].into_iter().enumerate() {
        let (t, p) = queries[i];
        let mut frame = Vec::new();
        proto::write_frame(&mut frame, &Request::Strq { t, point: p }.encode()).expect("frame");
        assert!(split < frame.len());
        // Outlast the server's spin before the first byte, then between
        // the halves.
        std::thread::sleep(gap);
        raw.write_all(&frame[..split]).expect("first half");
        std::thread::sleep(gap);
        raw.write_all(&frame[split..]).expect("second half");
        let payload = proto::read_frame(&mut raw)
            .expect("answer")
            .expect("not closed");
        let (version, remote) = match Response::decode(&payload).expect("decodes") {
            Response::Strq { version, outcome } => (version, outcome),
            other => panic!("expected an STRQ answer, got {other:?}"),
        };
        let (local_version, local) = server.service().strq(t, &p, &mut ws);
        assert_eq!(version, local_version);
        assert_eq!(remote, local, "split {split}: served STRQ diverged");
    }
    assert!(
        queries[..3].iter().any(|&(t, p)| !server
            .service()
            .strq(t, &p, &mut ws)
            .1
            .exact
            .is_empty()),
        "the queries answer nothing"
    );
    assert_eq!(server.stats().protocol_errors, 0);
    drop(raw);
    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_peer_closing_during_a_spin_ends_the_handler_cleanly() {
    let _serial = serial();
    let (dir, server, queries) = served("close");
    let (t, p) = queries[0];
    for _ in 0..20 {
        let mut conn = RemoteConn::connect(server.addr()).expect("connect");
        conn.strq(t, &p).expect("served");
        // The handler answered hot and now spins for the next request:
        // the close lands inside that spin.
        drop(conn);
    }
    await_no_served_connections();
    let stats = server.stats();
    assert_eq!(stats.accepted, 20);
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shutdown_while_a_client_spins_is_a_typed_close() {
    let _serial = serial();
    let (dir, server, queries) = served("stop");
    let (t, p) = queries[0];
    let mut conn = RemoteConn::connect(server.addr()).expect("connect");
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        // Idle longer than the poll interval between requests, so the
        // handler reaches a frame boundary and sees the stop flag; the
        // next request then waits on a closing connection.
        let mut answered = 0u32;
        let end = loop {
            match conn.strq(t, &p) {
                Ok(_) => answered += 1,
                Err(e) => break e,
            }
            std::thread::sleep(3 * POLL);
        };
        let _ = tx.send((answered, end));
    });
    std::thread::sleep(10 * POLL);
    server.shutdown().expect("graceful shutdown");
    let (answered, end) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the client hung after shutdown");
    client.join().expect("client thread");
    assert!(answered >= 1, "no request was served before shutdown");
    assert!(
        matches!(end, ClientError::Closed | ClientError::Wire(_)),
        "expected Closed or Wire, got {end:?}"
    );
    await_no_served_connections();
    let _ = std::fs::remove_dir_all(&dir);
}
