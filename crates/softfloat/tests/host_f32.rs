//! `HostF32` vs `Fp32` equivalence: every `Float` trait operation of the
//! native wrapper must reproduce the emulator bit for bit.
//!
//! `tests/native_equiv.rs` proves the emulator matches the host *hardware*;
//! this suite proves the [`HostF32`] *wrapper* matches the emulator through
//! the `Float` trait surface the algorithm crates actually call — including
//! the bit-field accessors the IterL2Norm exponent tricks rely on. Together
//! they license the engine-level backend bit-identity tests in the core
//! crate.

use rand::{RngExt, SeedableRng};
use softfloat::{Float, Fp32, HostF32};

/// Assert two same-format results agree: bit-equal, except that a pair of
/// NaNs with different payloads is accepted (payloads are the one licensed
/// difference; `from_f64` canonicalizes, arbitrary `from_bits` input does
/// not).
fn assert_match(context: &str, emulated: Fp32, native: HostF32) {
    if emulated.is_nan() {
        assert!(
            native.is_nan(),
            "{context}: emulated NaN, native {native:?}"
        );
    } else {
        assert_eq!(
            emulated.to_bits(),
            native.to_bits(),
            "{context}: emulated {emulated:?} [{:#010x}], native {native:?} [{:#010x}]",
            emulated.to_bits(),
            native.to_bits()
        );
    }
}

fn check_pair(a_bits: u32, b_bits: u32) {
    let (ea, eb) = (Fp32::from_bits(a_bits), Fp32::from_bits(b_bits));
    let (na, nb) = (HostF32::from_bits(a_bits), HostF32::from_bits(b_bits));
    assert_match(
        &format!("add({a_bits:#010x}, {b_bits:#010x})"),
        ea + eb,
        na + nb,
    );
    assert_match(
        &format!("sub({a_bits:#010x}, {b_bits:#010x})"),
        ea - eb,
        na - nb,
    );
    assert_match(
        &format!("mul({a_bits:#010x}, {b_bits:#010x})"),
        ea * eb,
        na * nb,
    );
    assert_match(
        &format!("div({a_bits:#010x}, {b_bits:#010x})"),
        ea / eb,
        na / nb,
    );
    assert_match(&format!("sqrt({a_bits:#010x})"), ea.sqrt(), na.sqrt());
    assert_match(&format!("neg({a_bits:#010x})"), -ea, -na);
    assert_match(&format!("abs({a_bits:#010x})"), ea.abs(), na.abs());
}

#[test]
fn arithmetic_matches_on_random_bit_patterns() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0001);
    for _ in 0..100_000 {
        check_pair(rng.random::<u32>(), rng.random::<u32>());
    }
}

#[test]
fn arithmetic_matches_on_subnormal_heavy_patterns() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0002);
    for _ in 0..50_000 {
        // Exponent field 0..=2: subnormals and the smallest normals.
        let a = (rng.random::<u32>() & 0x807F_FFFF) | (rng.random_range(0u32..3) << 23);
        let b = (rng.random::<u32>() & 0x807F_FFFF) | (rng.random_range(0u32..3) << 23);
        check_pair(a, b);
    }
}

#[test]
fn arithmetic_matches_on_directed_edges() {
    let specials: [u32; 14] = [
        0x0000_0000, // +0
        0x8000_0000, // −0
        0x3F80_0000, // 1
        0xBF80_0000, // −1
        0x0000_0001, // min subnormal
        0x007F_FFFF, // max subnormal
        0x0080_0000, // min normal
        0x7F7F_FFFF, // max finite
        0x7F80_0000, // +∞
        0xFF80_0000, // −∞
        0x7FC0_0000, // canonical quiet NaN
        0x3F7F_FFFF, // just under 1
        0x3F80_0001, // just over 1
        0x5F37_59DF, // the FISR magic constant, why not
    ];
    for &a in &specials {
        for &b in &specials {
            check_pair(a, b);
        }
    }
}

#[test]
fn mul_add_matches_fused_emulation() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0003);
    for _ in 0..50_000 {
        let (a, b, c) = (
            rng.random::<u32>(),
            rng.random::<u32>(),
            rng.random::<u32>(),
        );
        let emulated = Fp32::from_bits(a).mul_add(Fp32::from_bits(b), Fp32::from_bits(c));
        let native = HostF32::from_bits(a).mul_add(HostF32::from_bits(b), HostF32::from_bits(c));
        assert_match(
            &format!("fma({a:#010x}, {b:#010x}, {c:#010x})"),
            emulated,
            native,
        );
    }
}

#[test]
fn from_f64_matches_including_nan_canonicalization() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0004);
    for _ in 0..100_000 {
        let x = f64::from_bits(rng.random::<u64>());
        // Both sides canonicalize NaN, so this comparison is exact even
        // for NaN inputs.
        assert_eq!(
            Fp32::from_f64(x).to_bits(),
            HostF32::from_f64(x).to_bits(),
            "from_f64({x:?} [{:#018x}])",
            x.to_bits()
        );
    }
    for x in [0.345, 0.5, 1.5, 1e-45, 1e39, -1e39, f64::NAN, f64::INFINITY] {
        assert_eq!(Fp32::from_f64(x).to_bits(), HostF32::from_f64(x).to_bits());
    }
}

#[test]
fn to_f64_is_the_same_exact_widening() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0005);
    for _ in 0..50_000 {
        let bits = rng.random::<u32>();
        let e = Fp32::from_bits(bits);
        let n = HostF32::from_bits(bits);
        if e.is_nan() {
            assert!(n.to_f64().is_nan());
        } else {
            assert_eq!(e.to_f64().to_bits(), n.to_f64().to_bits(), "{bits:#010x}");
        }
    }
}

#[test]
fn scale_by_pow2_matches_across_the_exponent_range() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0006);
    for _ in 0..50_000 {
        let bits = rng.random::<u32>();
        if Fp32::from_bits(bits).is_nan() {
            continue;
        }
        let k = rng.random_range(-700i32..=700);
        assert_eq!(
            Fp32::from_bits(bits).scale_by_pow2(k).to_bits(),
            HostF32::from_bits(bits).scale_by_pow2(k).to_bits(),
            "scale_by_pow2({bits:#010x}, {k})"
        );
    }
}

#[test]
fn scale_by_pow2_matches_for_every_clamped_exponent() {
    // Every k the native path builds 2^k for from exponent bits, over
    // values whose results cover subnormal entry, exact flush to ±0,
    // ordinary normals and overflow to ±∞.
    let samples: Vec<u32> = [
        0x0000_0000u32, // +0
        0x8000_0000,    // -0
        0x0000_0001,    // smallest subnormal
        0x807F_FFFF,    // largest negative subnormal
        0x0080_0000,    // smallest normal
        0x3F80_0000,    // 1.0
        0xBFC0_0001,    // -1.5000001
        0x3EAA_AAAB,    // 1/3 (rounding-sensitive significand)
        0x4B7F_FFFF,    // 16777215
        0x7F7F_FFFF,    // f32::MAX
        0xFF00_0001,    // large negative normal
        0x7F80_0000,    // +inf
        0xFF80_0000,    // -inf
    ]
    .into_iter()
    .chain((0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9) & 0x7F7F_FFFF))
    .collect();
    for k in -600i32..=600 {
        for &bits in &samples {
            assert_eq!(
                Fp32::from_bits(bits).scale_by_pow2(k).to_bits(),
                HostF32::from_bits(bits).scale_by_pow2(k).to_bits(),
                "scale_by_pow2({bits:#010x}, {k})"
            );
        }
    }
}

#[test]
fn field_accessors_match() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0007);
    for _ in 0..50_000 {
        let bits = rng.random::<u32>();
        let e = Fp32::from_bits(bits);
        let n = HostF32::from_bits(bits);
        assert_eq!(e.exponent_field(), n.exponent_field(), "{bits:#010x}");
        assert_eq!(e.is_sign_negative(), n.is_sign_negative(), "{bits:#010x}");
        assert_eq!(e.is_zero(), n.is_zero(), "{bits:#010x}");
        assert_eq!(e.is_finite(), n.is_finite(), "{bits:#010x}");
        assert_eq!(e.is_infinite(), n.is_infinite(), "{bits:#010x}");
        assert_eq!(e.is_nan(), n.is_nan(), "{bits:#010x}");
    }
    // from_fields masks its inputs identically on both sides.
    for _ in 0..10_000 {
        let (sign, exp, mant) = (
            rng.random_bool(0.5),
            rng.random::<u32>(),
            rng.random::<u32>(),
        );
        assert_eq!(
            Fp32::from_fields(sign, exp, mant).to_bits(),
            HostF32::from_fields(sign, exp, mant).to_bits(),
            "from_fields({sign}, {exp:#x}, {mant:#x})"
        );
    }
}

#[test]
fn comparisons_agree_with_ieee_partial_order() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF32_0008);
    for _ in 0..50_000 {
        let (a, b) = (rng.random::<u32>(), rng.random::<u32>());
        let e = Fp32::from_bits(a).partial_cmp(&Fp32::from_bits(b));
        let n = HostF32::from_bits(a).partial_cmp(&HostF32::from_bits(b));
        assert_eq!(e, n, "partial_cmp({a:#010x}, {b:#010x})");
    }
}
