//! Error-taxonomy and fixture tests for the real-dataset parsers
//! (`ppq_traj::io::real`). Everything here runs offline: the fixture
//! dumps are checked in. The contract
//! under test: malformed rows, out-of-order timestamps, duplicate ids,
//! empty files, and truncated/invalid UTF-8 all come back as *typed*
//! errors — the parsers must never panic on outside-world bytes.

use ppq_traj::io::real::{
    load_real_dataset, read_geolife_plt, read_porto_csv, RealDataError, RealDataset,
};
use ppq_traj::ResampleConfig;
use std::path::Path;

const PORTO_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/porto_mini.csv");
const GEOLIFE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/geolife_mini.plt"
);

const PORTO_HEADER: &str =
    "\"TRIP_ID\",\"CALL_TYPE\",\"ORIGIN_CALL\",\"ORIGIN_STAND\",\"TAXI_ID\",\"TIMESTAMP\",\"DAY_TYPE\",\"MISSING_DATA\",\"POLYLINE\"\n";

fn porto_row(id: &str, ts: u64, poly: &str, missing: &str) -> String {
    format!("\"{id}\",\"C\",\"\",\"\",\"20000001\",\"{ts}\",\"A\",\"{missing}\",\"{poly}\"\n")
}

// ---------------------------------------------------------------- Porto

#[test]
fn porto_fixture_parses_and_normalizes() {
    let bytes = std::fs::read(PORTO_FIXTURE).unwrap();
    let trips = read_porto_csv(bytes.as_slice(), None).unwrap();
    // 3 real trips; the MISSING_DATA=True row and the empty polyline are
    // skipped, not errors.
    assert_eq!(trips.len(), 3);
    assert_eq!(trips[0].2.len(), 45);
    assert!(trips.iter().all(|(_, ts, _)| *ts >= 1372636858.0));

    // End-to-end through the directory loader: a data directory with
    // porto.csv at its root.
    let dir = std::env::temp_dir().join(format!("ppq-porto-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(PORTO_FIXTURE, dir.join("porto.csv")).unwrap();
    let cfg = RealDataset::Porto.default_resample();
    let d = load_real_dataset(RealDataset::Porto, &dir, &cfg, None).unwrap();
    assert_eq!(d.num_trajectories(), 3);
    // Normalization rebases the earliest fix to timestep ~0.
    assert!(d.min_t() <= 1, "time not rebased: min_t = {}", d.min_t());
    assert!(d.trajectories().iter().all(|t| t.len() >= cfg.min_len));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn porto_limit_caps_kept_trips() {
    let bytes = std::fs::read(PORTO_FIXTURE).unwrap();
    let trips = read_porto_csv(bytes.as_slice(), Some(2)).unwrap();
    assert_eq!(trips.len(), 2);
}

#[test]
fn porto_malformed_rows_are_typed_errors() {
    // Unparsable timestamp.
    let doc = format!(
        "{PORTO_HEADER}{}",
        porto_row("t1", 0, "[[-8.6,41.1]]", "False").replace("\"0\"", "\"not-a-ts\"")
    );
    assert!(matches!(
        read_porto_csv(doc.as_bytes(), None),
        Err(RealDataError::Parse { line: 2, .. })
    ));
    // Too few fields.
    let doc = format!("{PORTO_HEADER}\"only\",\"two\"\n");
    assert!(matches!(
        read_porto_csv(doc.as_bytes(), None),
        Err(RealDataError::Parse { line: 2, .. })
    ));
    // Bad polyline syntax variants.
    for poly in [
        "not-json",
        "[[-8.6]]",
        "[[-8.6,41.1,9.9]]",
        "[[-8.6,foo]]",
        "[[-8.6,41.1]",
    ] {
        let doc = format!("{PORTO_HEADER}{}", porto_row("t1", 1, poly, "False"));
        assert!(
            matches!(
                read_porto_csv(doc.as_bytes(), None),
                Err(RealDataError::Parse { line: 2, .. })
            ),
            "polyline `{poly}` must be a parse error"
        );
    }
    // Unterminated quote.
    let doc = format!("{PORTO_HEADER}\"unterminated\n");
    assert!(matches!(
        read_porto_csv(doc.as_bytes(), None),
        Err(RealDataError::Parse { line: 2, .. })
    ));
    // Header missing required columns.
    let doc = "\"A\",\"B\"\n\"1\",\"2\"\n";
    assert!(matches!(
        read_porto_csv(doc.as_bytes(), None),
        Err(RealDataError::Parse { line: 1, .. })
    ));
}

#[test]
fn porto_duplicate_trip_id_is_a_typed_error() {
    let doc = format!(
        "{PORTO_HEADER}{}{}",
        porto_row("same", 1, "[[-8.6,41.1]]", "False"),
        porto_row("same", 2, "[[-8.7,41.2]]", "False"),
    );
    match read_porto_csv(doc.as_bytes(), None) {
        Err(RealDataError::DuplicateTrip { line: 3, trip_id }) => assert_eq!(trip_id, "same"),
        other => panic!("expected DuplicateTrip, got {other:?}"),
    }
}

#[test]
fn porto_empty_inputs_are_typed_errors() {
    assert!(matches!(
        read_porto_csv(&b""[..], None),
        Err(RealDataError::Empty)
    ));
    // Header only, no rows.
    assert!(matches!(
        read_porto_csv(PORTO_HEADER.as_bytes(), None),
        Err(RealDataError::Empty)
    ));
}

#[test]
fn porto_invalid_utf8_is_a_typed_error() {
    // A row truncated mid multi-byte codepoint (0xC3 starts a 2-byte
    // sequence that never completes).
    let mut doc = PORTO_HEADER.as_bytes().to_vec();
    doc.extend_from_slice(b"\"trip\xc3\n");
    assert!(matches!(
        read_porto_csv(doc.as_slice(), None),
        Err(RealDataError::Utf8 { line: 2 })
    ));
}

// -------------------------------------------------------------- GeoLife

fn plt_doc(rows: &[&str]) -> String {
    let mut doc = String::from(
        "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n",
    );
    for r in rows {
        doc.push_str(r);
        doc.push('\n');
    }
    doc
}

#[test]
fn geolife_fixture_parses() {
    let bytes = std::fs::read(GEOLIFE_FIXTURE).unwrap();
    let trace = read_geolife_plt(bytes.as_slice()).unwrap();
    assert_eq!(trace.len(), 120);
    // 5 s cadence in seconds (the days column only carries ~10 decimal
    // places, so allow millisecond slop).
    assert!((trace[1].0 - trace[0].0 - 5.0).abs() < 1e-3);
    // x = lon, y = lat.
    assert!(trace[0].1.x > 100.0 && trace[0].1.y < 50.0);

    // Through the loader: geolife/<file>.plt under a data dir.
    let dir = std::env::temp_dir().join(format!("ppq-geolife-fixture-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("geolife/000/Trajectory")).unwrap();
    std::fs::copy(
        GEOLIFE_FIXTURE,
        dir.join("geolife/000/Trajectory/20081023025304.plt"),
    )
    .unwrap();
    let cfg = ResampleConfig {
        interval: 5.0,
        max_gap: 60.0,
        min_len: 30,
    };
    let d = load_real_dataset(RealDataset::Geolife, &dir, &cfg, None).unwrap();
    assert_eq!(d.num_trajectories(), 1);
    assert!(d.min_t() <= 1);
    assert!(d.num_points() >= 100);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn geolife_out_of_order_timestamps_are_typed_errors() {
    let doc = plt_doc(&[
        "39.9,116.3,0,492,39744.10,2008-10-23,02:24:00",
        "39.9,116.3,0,492,39744.20,2008-10-23,04:48:00",
        "39.9,116.3,0,492,39744.15,2008-10-23,03:36:00", // regression
    ]);
    assert!(matches!(
        read_geolife_plt(doc.as_bytes()),
        Err(RealDataError::OutOfOrder { line: 9 })
    ));
}

#[test]
fn geolife_malformed_rows_are_typed_errors() {
    for row in [
        "39.9,116.3,0,492",                             // too few fields
        "not-a-lat,116.3,0,492,39744.10,2008,02:24:00", // bad lat
        "39.9,nope,0,492,39744.10,2008,02:24:00",       // bad lon
        "39.9,116.3,0,492,never,2008,02:24:00",         // bad timestamp
        "inf,116.3,0,492,39744.10,2008,02:24:00",       // non-finite
    ] {
        let doc = plt_doc(&[row]);
        assert!(
            matches!(
                read_geolife_plt(doc.as_bytes()),
                Err(RealDataError::Parse { line: 7, .. })
            ),
            "row `{row}` must be a parse error"
        );
    }
}

#[test]
fn geolife_empty_and_header_only_are_typed_errors() {
    assert!(matches!(
        read_geolife_plt(&b""[..]),
        Err(RealDataError::Empty)
    ));
    assert!(matches!(
        read_geolife_plt(plt_doc(&[]).as_bytes()),
        Err(RealDataError::Empty)
    ));
}

#[test]
fn geolife_invalid_utf8_is_a_typed_error() {
    let mut doc = plt_doc(&[]).into_bytes();
    doc.extend_from_slice(b"39.9,116.3,0,492,39744.1,2008-10-23,02:5\xe4\n");
    assert!(matches!(
        read_geolife_plt(doc.as_slice()),
        Err(RealDataError::Utf8 { line: 7 })
    ));
}

// ------------------------------------------------------------- Loaders

#[test]
fn loader_missing_files_are_io_errors_not_panics() {
    let dir = Path::new("/definitely/not/a/real/path");
    let cfg = RealDataset::Porto.default_resample();
    assert!(matches!(
        load_real_dataset(RealDataset::Porto, dir, &cfg, None),
        Err(RealDataError::Io(_))
    ));
    assert!(matches!(
        load_real_dataset(RealDataset::Geolife, dir, &cfg, None),
        Err(RealDataError::Io(_))
    ));
}
