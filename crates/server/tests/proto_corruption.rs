//! Corruption robustness of the wire protocol, in the style of the WAL
//! corruption suite: random truncations and bit-flips of valid frames
//! must never panic the decoders — every malformed input is a typed
//! [`ProtocolError`]. Because the encoding is canonical (one byte
//! sequence per message, no redundant representations accepted), any
//! corrupted payload that still decodes must re-encode to exactly the
//! corrupted bytes — so decode(encode(x)) = x and encode(decode(y)) = y
//! are both property-tested here.

use ppq_core::query::StrqOutcome;
use ppq_geo::Point;
use ppq_obs::{HistogramStats, MetricsSnapshot, SlowQuery};
use ppq_server::proto::{self, ProtocolError, Request, Response, StatsBody, WireError};
use proptest::prelude::*;

/// One valid request per shape (vectors non-empty so truncation has
/// structure to tear).
fn sample_requests() -> Vec<Request> {
    vec![
        Request::Strq {
            t: 7,
            point: Point::new(-8.61, 41.15),
        },
        Request::Tpq {
            t: 7,
            point: Point::new(0.25, -0.5),
            horizon: 8,
        },
        Request::Append {
            t: 12,
            points: vec![
                (100, Point::new(1.0, 2.0)),
                (101, Point::new(-1.5, 0.125)),
                (102, Point::new(3.25, -9.75)),
            ],
        },
        Request::Stats,
        Request::Publish,
        Request::Metrics,
    ]
}

/// One valid response per shape.
fn sample_responses() -> Vec<Response> {
    let outcome = StrqOutcome {
        truth: vec![1, 2, 9],
        approx: vec![2, 9],
        candidates: vec![2, 5, 9],
        exact: vec![2, 9],
        visited: 3,
    };
    vec![
        Response::Strq {
            version: 40,
            outcome,
        },
        Response::Tpq {
            version: 40,
            matches: vec![
                (
                    2,
                    vec![(7, Point::new(1.0, 2.0)), (8, Point::new(1.5, 2.5))],
                ),
                (9, vec![]),
            ],
        },
        Response::Appended { next_t: 13 },
        Response::Stats(StatsBody {
            next_t: Some(13),
            published_version: 12,
            wal_pending: 3,
            maintenance_failures: 0,
            worker_attached: true,
            last_maintenance_error: Some("disk on fire".to_string()),
            wal_pending_bytes: 4096,
            chain_generations: 2,
            last_fold_unix_ms: Some(1_700_000_000_000),
            last_compaction_unix_ms: None,
            pool_resident_frames: 128,
        }),
        Response::Metrics(MetricsSnapshot {
            counters: vec![
                ("ppq_pool_hits".to_string(), 42),
                ("ppq_server_requests".to_string(), 7),
            ],
            gauges: vec![("ppq_wal_records_pending".to_string(), 3)],
            histograms: vec![(
                "ppq_server_strq_ns".to_string(),
                HistogramStats {
                    count: 9,
                    sum_ns: 90_000,
                    min_ns: 1_000,
                    p50_ns: 10_000,
                    p90_ns: 20_000,
                    p99_ns: 30_000,
                    p999_ns: 30_000,
                    max_ns: 31_000,
                },
            )],
            slow_queries: vec![SlowQuery {
                name: "strq".to_string(),
                seq: 4,
                latency_ns: 31_000,
                reads: 12,
                hits: 9,
                visited: 80,
            }],
        }),
        Response::Published { version: 13 },
        Response::Busy,
        Response::OutOfOrder {
            expected: 13,
            got: 40,
        },
        Response::Error {
            message: "append failed: budget".to_string(),
        },
    ]
}

/// Every fixture payload, both classes (for the never-panic properties).
fn sample_payloads() -> Vec<Vec<u8>> {
    sample_requests()
        .iter()
        .map(|r| r.encode().to_vec())
        .chain(sample_responses().iter().map(|r| r.encode().to_vec()))
        .collect()
}

/// Decode a payload as whichever message class it is (requests and
/// responses share header layout; the fixtures keep their tags
/// unambiguous within their own class, so try both).
fn decode_any(payload: &[u8]) -> Result<Vec<u8>, (ProtocolError, ProtocolError)> {
    match Request::decode(payload) {
        Ok(req) => Ok(req.encode().to_vec()),
        Err(req_err) => match Response::decode(payload) {
            Ok(resp) => Ok(resp.encode().to_vec()),
            Err(resp_err) => Err((req_err, resp_err)),
        },
    }
}

#[test]
fn every_message_roundtrips() {
    for req in sample_requests() {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload), Ok(req));
    }
    for resp in sample_responses() {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload), Ok(resp));
    }
}

#[test]
fn trailing_garbage_is_typed() {
    for req in sample_requests() {
        let mut payload = req.encode().to_vec();
        payload.push(0xAB);
        assert_eq!(
            Request::decode(&payload),
            Err(ProtocolError::TrailingBytes(1))
        );
    }
    for resp in sample_responses() {
        let mut payload = resp.encode().to_vec();
        payload.push(0xAB);
        assert_eq!(
            Response::decode(&payload),
            Err(ProtocolError::TrailingBytes(1))
        );
    }
}

#[test]
fn foreign_version_is_rejected() {
    for mut payload in sample_payloads() {
        payload[0] ^= 0x40;
        let bad = payload[0];
        assert_eq!(
            Request::decode(&payload),
            Err(ProtocolError::BadVersion(bad))
        );
        assert_eq!(
            Response::decode(&payload),
            Err(ProtocolError::BadVersion(bad))
        );
    }
}

#[test]
fn oversize_frame_is_refused_before_allocation() {
    // A length prefix past the cap must error out of `read_frame`
    // without any attempt to read (or allocate) the announced payload.
    let huge = ((proto::MAX_FRAME_LEN + 1) as u32).to_le_bytes();
    let mut cursor = std::io::Cursor::new(huge.to_vec());
    match proto::read_frame(&mut cursor) {
        Err(WireError::Protocol(ProtocolError::Oversize(n))) => {
            assert_eq!(n, proto::MAX_FRAME_LEN + 1)
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
}

#[test]
fn frame_roundtrip_and_clean_eof() {
    let payloads = sample_payloads();
    let mut wire = Vec::new();
    for p in &payloads {
        proto::write_frame(&mut wire, p).unwrap();
    }
    let mut cursor = std::io::Cursor::new(wire);
    for p in &payloads {
        let got = proto::read_frame(&mut cursor).unwrap().expect("frame");
        assert_eq!(&got, p);
    }
    assert!(matches!(proto::read_frame(&mut cursor), Ok(None)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every strict prefix of a valid payload is a typed error in its
    /// own message class — the decoders never panic and never accept a
    /// torn message. (Cross-class decoding is out of scope: tags are
    /// scoped to a direction, and each peer only decodes its own.)
    #[test]
    fn truncation_is_always_typed(which in 0u32..u32::MAX, cut in 0u32..u32::MAX) {
        let reqs = sample_requests();
        let resps = sample_responses();
        let total = reqs.len() + resps.len();
        let which = which as usize % total;
        if which < reqs.len() {
            let payload = reqs[which].encode();
            let torn = &payload[..(cut as usize) % payload.len()];
            prop_assert!(Request::decode(torn).is_err());
        } else {
            let payload = resps[which - reqs.len()].encode();
            let torn = &payload[..(cut as usize) % payload.len()];
            prop_assert!(Response::decode(torn).is_err());
        }
    }

    /// A single bit-flip anywhere never panics either decoder; when the
    /// damaged payload still decodes, it re-encodes byte-identically
    /// (canonical form — corruption cannot hide in an alias).
    #[test]
    fn bit_flip_never_panics(which in 0u32..u32::MAX, pos in 0u32..u32::MAX, bit in 0u32..8) {
        let payloads = sample_payloads();
        let mut payload = payloads[which as usize % payloads.len()].clone();
        let pos = (pos as usize) % payload.len();
        payload[pos] ^= 1 << bit;
        if let Ok(reencoded) = decode_any(&payload) {
            prop_assert_eq!(reencoded, payload);
        }
    }

    /// Torn frames (length prefix promising more than the stream holds)
    /// surface as typed truncation out of `read_frame`.
    #[test]
    fn torn_frame_is_typed(which in 0u32..u32::MAX, cut in 0u32..u32::MAX) {
        let payloads = sample_payloads();
        let payload = &payloads[which as usize % payloads.len()];
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, payload).unwrap();
        let cut = 1 + (cut as usize) % (wire.len() - 1);
        let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
        match proto::read_frame(&mut cursor) {
            Err(WireError::Protocol(ProtocolError::Truncated)) => {}
            Ok(Some(p)) => prop_assert!(false, "torn frame decoded whole: {} bytes", p.len()),
            other => prop_assert!(
                matches!(other, Err(WireError::Protocol(ProtocolError::Truncated))),
                "expected Truncated"
            ),
        }
    }
}
