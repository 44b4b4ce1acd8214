//! Corruption robustness of `summary_io::from_bytes` and
//! `summary_io::apply_delta`: random truncations and bit-flips of valid
//! serializations must never panic — truncations must surface as a decode
//! error, bit-flips may either error or decode to *some* summary (a flip
//! can land in a coordinate payload and leave the structure intact), but
//! the decoder must stay in control either way.

use ppq_core::summary_io::{apply_delta, delta_to_bytes, from_bytes, to_bytes, DecodeError};
use ppq_core::{PpqConfig, PpqStream, PpqTrajectory, Variant};
use ppq_traj::synth::{porto_like, PortoConfig};
use proptest::prelude::*;

/// One serialized summary per variant family: CQC-enabled (PPQ-S),
/// CQC-free global codebook (PPQ-A without CQC path differences), and a
/// per-step codebook (Q-trajectory). Built once — every proptest case
/// reuses the same deterministic fixtures.
fn fixtures() -> &'static Vec<Vec<u8>> {
    static FIXTURES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    FIXTURES.get_or_init(|| {
        let data = porto_like(&PortoConfig {
            trajectories: 12,
            mean_len: 30,
            min_len: 20,
            start_spread: 6,
            seed: 0x5EED,
        });
        [Variant::PpqS, Variant::PpqA, Variant::QTrajectory]
            .into_iter()
            .map(|v| {
                let mut cfg = PpqConfig::variant(v, 0.1);
                cfg.build_index = false;
                to_bytes(&PpqTrajectory::build(&data, &cfg).into_summary())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid serialization is an error, never a
    /// panic: the format has no trailing slack, so a missing byte must
    /// surface as an early EOF somewhere.
    #[test]
    fn truncation_errors_cleanly(which in 0usize..3, cut in 0u32..u32::MAX) {
        let bytes = &fixtures()[which];
        let cut = (cut as usize) % bytes.len();
        let err = from_bytes(&bytes[..cut], false)
            .expect_err("strict prefix decoded successfully");
        prop_assert!(matches!(
            err,
            DecodeError::Corrupt(_) | DecodeError::BadMagic | DecodeError::UnsupportedVersion(_)
        ));
    }

    /// Random bit-flips never panic; when the flip leaves the structure
    /// decodable, the decoded summary is well-formed enough to replay
    /// (from_bytes replays every trajectory internally).
    #[test]
    fn bit_flips_never_panic(which in 0usize..3, flips in prop::collection::vec((0u32..u32::MAX, 0u8..8), 1..6)) {
        let mut bytes = fixtures()[which].clone();
        for (pos, bit) in flips {
            let at = (pos as usize) % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        // Ok or Err are both acceptable — panicking is not.
        let _ = from_bytes(&bytes, false);
    }

    /// Flips restricted to the header/structure area (first 64 bytes) hit
    /// the length- and tag-bearing fields hardest — the paths the
    /// hardening targets.
    #[test]
    fn header_flips_never_panic(which in 0usize..3, at in 8u32..64, bit in 0u8..8) {
        let mut bytes = fixtures()[which].clone();
        let at = at as usize % bytes.len().max(1);
        bytes[at] ^= 1 << bit;
        let _ = from_bytes(&bytes, false);
    }
}

#[test]
fn valid_fixtures_roundtrip() {
    for bytes in fixtures() {
        let s = from_bytes(bytes, false).expect("valid serialization decodes");
        assert!(s.num_points() > 0);
    }
}

/// `(base serialization, delta serialization)` pairs per variant family —
/// the delta was cut from a mid-stream snapshot to the stream's end, so
/// it carries all four payload kinds (codebook/coefficient extensions,
/// extended trajectories, fresh trajectories).
fn delta_fixtures() -> &'static Vec<(Vec<u8>, Vec<u8>)> {
    static FIXTURES: std::sync::OnceLock<Vec<(Vec<u8>, Vec<u8>)>> = std::sync::OnceLock::new();
    FIXTURES.get_or_init(|| {
        let data = porto_like(&PortoConfig {
            trajectories: 12,
            mean_len: 30,
            min_len: 20,
            start_spread: 6,
            seed: 0x5EED,
        });
        [Variant::PpqS, Variant::PpqA, Variant::QTrajectory]
            .into_iter()
            .map(|v| {
                let mut cfg = PpqConfig::variant(v, 0.1);
                cfg.build_index = false;
                let mut stream = PpqStream::new(cfg);
                let slices: Vec<_> = data.time_slices().collect();
                let cut = slices.len() / 2;
                for slice in &slices[..cut] {
                    stream.push_slice(slice.t, slice.points);
                }
                let snap = stream.snapshot();
                for slice in &slices[cut..] {
                    stream.push_slice(slice.t, slice.points);
                }
                let full = stream.finish();
                let delta = delta_to_bytes(&snap, &full).expect("snapshot is a prefix");
                (to_bytes(&snap), delta)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid delta is an error when applied to
    /// its base, never a panic.
    #[test]
    fn delta_truncation_errors_cleanly(which in 0usize..3, cut in 0u32..u32::MAX) {
        let (base_bytes, delta) = &delta_fixtures()[which];
        let cut = (cut as usize) % delta.len();
        let mut base = from_bytes(base_bytes, false).expect("valid base");
        let err = apply_delta(&mut base, &delta[..cut])
            .expect_err("strict delta prefix applied successfully");
        prop_assert!(matches!(
            err,
            DecodeError::Corrupt(_) | DecodeError::BadMagic | DecodeError::UnsupportedVersion(_)
        ));
    }

    /// Random bit-flips in a delta never panic the apply path; the base
    /// may be left partially extended (the documented contract: discard
    /// on error), but control always returns.
    #[test]
    fn delta_bit_flips_never_panic(which in 0usize..3, flips in prop::collection::vec((0u32..u32::MAX, 0u8..8), 1..6)) {
        let (base_bytes, delta) = &delta_fixtures()[which];
        let mut delta = delta.clone();
        for (pos, bit) in flips {
            let at = (pos as usize) % delta.len();
            delta[at] ^= 1 << bit;
        }
        let mut base = from_bytes(base_bytes, false).expect("valid base");
        let _ = apply_delta(&mut base, &delta);
    }
}

#[test]
fn valid_delta_fixtures_apply() {
    for (base_bytes, delta) in delta_fixtures() {
        let mut base = from_bytes(base_bytes, false).expect("valid base");
        let before = base.num_points();
        apply_delta(&mut base, delta).expect("valid delta applies");
        assert!(base.num_points() > before);
    }
}

/// Trajectory ids need not arrive in order: a trajectory first seen in
/// the delta window may carry an id far beyond the base's array length
/// while the delta itself stays a few hundred bytes — the slots below the
/// new id hold no points and so occupy no delta bytes. Such a delta is
/// valid and must apply.
#[test]
fn delta_introducing_a_far_id_applies() {
    let mut cfg = PpqConfig::variant(Variant::PpqS, 0.1);
    cfg.build_index = false;
    let mut stream = PpqStream::new(cfg);
    let at = |id: u32, t: u32| {
        let step = t as f64 * 1e-4;
        (
            id,
            ppq_geo::Point::new(-8.6 + step, 41.1 + id as f64 * 1e-7),
        )
    };
    for t in 0..10 {
        stream.push_slice(t, &[at(0, t), at(1, t), at(2, t)]);
    }
    let snap = stream.snapshot();
    for t in 10..14 {
        stream.push_slice(t, &[at(0, t), at(1, t), at(2, t), at(5000, t)]);
    }
    let full = stream.finish();
    let delta = delta_to_bytes(&snap, &full).expect("snapshot is a prefix");
    assert!(
        delta.len() < 4000,
        "the case needs fewer delta bytes ({}) than new array slots",
        delta.len()
    );
    let mut base = from_bytes(&to_bytes(&snap), false).expect("valid base");
    apply_delta(&mut base, &delta).expect("a far first-seen id is not corruption");
    assert_eq!(to_bytes(&base), to_bytes(&full));
}
