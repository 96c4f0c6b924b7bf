//! ROM serialization acceptance tests.
//!
//! The format contract (`pmor::rom`): save → load reproduces the model
//! **bitwise** — `transfer()` at arbitrary (parameter, frequency) points
//! returns bit-for-bit identical values — and corrupted or
//! unknown-version files are rejected instead of misread.

use pmor::rom::{fnv1a, from_bytes, to_bytes, ROM_FORMAT_VERSION, ROM_MAGIC};
use pmor::{reducer_by_name, ParametricRom, PmorError};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, RcMeshConfig, RcRandomConfig,
    RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Small instances of every generator family.
fn workloads() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 40,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 60,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 10,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 5,
                cols: 5,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

/// Asserts `transfer()` agrees bit-for-bit between two ROMs at random
/// (parameter, frequency) points.
fn assert_transfer_bitwise_identical(a: &ParametricRom, b: &ParametricRom, seed: u64, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..25 {
        let p: Vec<f64> = (0..a.num_params())
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        let f = 10f64.powf(rng.gen_range(6.0..10.5));
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
        let ha = a.transfer(&p, s).unwrap();
        let hb = b.transfer(&p, s).unwrap();
        for r in 0..ha.nrows() {
            for c in 0..ha.ncols() {
                assert_eq!(
                    ha[(r, c)].re.to_bits(),
                    hb[(r, c)].re.to_bits(),
                    "{what}: trial {trial} re({r},{c}) differs at p={p:?}, f={f:.3e}"
                );
                assert_eq!(
                    ha[(r, c)].im.to_bits(),
                    hb[(r, c)].im.to_bits(),
                    "{what}: trial {trial} im({r},{c}) differs at p={p:?}, f={f:.3e}"
                );
            }
        }
    }
}

#[test]
fn round_trip_is_bitwise_for_every_generator_and_method() {
    let dir = std::env::temp_dir().join(format!("pmor_rom_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (wname, sys) in workloads() {
        for method in ["prima", "lowrank"] {
            let rom = reducer_by_name(method, &sys)
                .unwrap()
                .reduce_once(&sys)
                .unwrap();
            let path = dir.join(format!("{wname}_{method}.rom"));
            pmor::rom::save(&rom, &path).unwrap();
            let back = pmor::rom::load(&path).unwrap();
            assert_eq!(back.size(), rom.size());
            assert_eq!(back.num_params(), rom.num_params());
            assert_eq!(back.num_inputs(), rom.num_inputs());
            assert_eq!(back.num_outputs(), rom.num_outputs());
            assert_transfer_bitwise_identical(
                &rom,
                &back,
                0xBEEF ^ rom.size() as u64,
                &format!("{wname}/{method}"),
            );
        }
    }
}

#[test]
fn byte_level_round_trip_preserves_exact_payload() {
    let sys = workloads().remove(0).1;
    let rom = reducer_by_name("lowrank", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let bytes = to_bytes(&rom);
    assert_eq!(&bytes[..8], &ROM_MAGIC);
    let back = from_bytes(&bytes).unwrap();
    // Serializing the reloaded model reproduces the identical byte stream.
    assert_eq!(to_bytes(&back), bytes);
}

#[test]
fn corrupted_bytes_are_rejected_everywhere() {
    // Property-style: flipping any single byte of the payload must be
    // detected (checksum), and truncating anywhere must fail cleanly.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 12,
        ..Default::default()
    })
    .assemble();
    let rom = reducer_by_name("prima", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let good = to_bytes(&rom);
    let mut runner = proptest::TestRunner::new(proptest::ProptestConfig::with_cases(64));
    let len = good.len();
    runner.run(|rng| {
        // Flip one payload byte (past magic+version, before the checksum).
        let at = rng.gen_range(12..len - 8);
        let mut bad = good.clone();
        bad[at] ^= 1 << rng.gen_range(0..8usize);
        prop_assert!(
            from_bytes(&bad).is_err(),
            "flipped byte {at} went undetected"
        );
        // Truncate at an arbitrary point.
        let cut = rng.gen_range(0..len);
        prop_assert!(
            from_bytes(&good[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
        Ok(())
    });
    // The pristine bytes still load.
    assert!(from_bytes(&good).is_ok());
}

/// `bytes` with its trailing checksum recomputed over the (edited)
/// payload, so the decoder itself — not the checksum — must judge it.
fn restamped(mut bytes: Vec<u8>) -> Vec<u8> {
    let end = bytes.len() - 8;
    let sum = fnv1a(&bytes[12..end]);
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

fn small_rom_bytes() -> Vec<u8> {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 12,
        ..Default::default()
    })
    .assemble();
    let rom = reducer_by_name("prima", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    to_bytes(&rom)
}

#[test]
fn restamped_soup_reaches_the_decoder_and_never_panics() {
    let good = small_rom_bytes();
    let header = 12..12 + 5 * 8;
    let mut runner = proptest::TestRunner::new(proptest::ProptestConfig::with_cases(256));
    runner.run(|rng| {
        // Header-count soup: one of size/full_dim/np/ni/no replaced by
        // a small, a plausible-but-huge, or an arbitrary count.
        let field = 12 + 8 * rng.gen_range(0..5usize);
        let old = u64::from_le_bytes(good[field..field + 8].try_into().unwrap());
        let count = match rng.gen_range(0..4usize) {
            0 => rng.gen_range(0..64u64),
            1 => 1 << 24,
            2 => rng.gen_range(1u64 << 20..1 << 24),
            _ => rng.next_u64(),
        };
        let mut bad = good.clone();
        bad[field..field + 8].copy_from_slice(&count.to_le_bytes());
        let result = from_bytes(&restamped(bad));
        prop_assert!(
            count == old || result.is_err(),
            "header field at {field}: count {count} (was {old}) accepted"
        );
        // Payload soup: random bytes over a random stretch of the real
        // payload (header included), or a wholly random payload.
        let mut soup = good.clone();
        if rng.gen_range(0..4usize) == 0 {
            let len = rng.gen_range(0..400usize);
            soup.truncate(12);
            soup.extend((0..len + 8).map(|_| rng.next_u64() as u8));
        } else {
            let from = rng.gen_range(header.start..good.len() - 8);
            let to = rng.gen_range(from..good.len() - 8);
            for b in &mut soup[from..=to] {
                *b = rng.next_u64() as u8;
            }
        }
        let _ = from_bytes(&restamped(soup));
        Ok(())
    });
}

#[test]
fn forged_parameter_count_is_rejected_before_allocating() {
    // np = 2^24 passes the per-dimension plausibility cap; with a
    // re-stamped checksum only the bytes-left check stands between it
    // and two 640 MiB reservations.
    let mut bad = small_rom_bytes();
    bad[12 + 16..12 + 24].copy_from_slice(&(1u64 << 24).to_le_bytes());
    match from_bytes(&restamped(bad)) {
        Err(PmorError::Invalid(msg)) => assert!(msg.contains("parameters"), "{msg}"),
        other => panic!("forged parameter count accepted: {other:?}"),
    }
}

#[test]
fn old_and_future_format_versions_are_rejected() {
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 12,
        ..Default::default()
    })
    .assemble();
    let rom = reducer_by_name("prima", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let good = to_bytes(&rom);
    for version in [0u32, ROM_FORMAT_VERSION + 1, u32::MAX] {
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        match from_bytes(&bad) {
            Err(PmorError::Invalid(msg)) => {
                assert!(msg.contains("version"), "version {version}: {msg}")
            }
            other => panic!("version {version} accepted: {other:?}"),
        }
    }
}

#[test]
fn foreign_files_are_rejected() {
    assert!(from_bytes(b"").is_err());
    assert!(from_bytes(b"not a rom at all, definitely long enough to pass length checks").is_err());
    let mut almost = Vec::from(ROM_MAGIC);
    almost.extend_from_slice(&ROM_FORMAT_VERSION.to_le_bytes());
    almost.extend_from_slice(&[0u8; 8]); // checksum of an empty payload won't match
    assert!(from_bytes(&almost).is_err());
}
