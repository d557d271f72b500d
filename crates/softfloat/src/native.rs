//! [`HostF32`]: the host CPU's own IEEE binary32 behind the [`Float`]
//! interface — the native execution bridge for the FP32 format.
//!
//! `Fp32 = Sf<8, 23>` models exactly the format the host hardware computes
//! in (round-to-nearest-even binary32 with subnormals), so every arithmetic
//! result of this type is *bit-identical* to the emulated one — proven by
//! `tests/native_equiv.rs` (emulated vs hardware) and `tests/host_f32.rs`
//! (this wrapper vs emulated, operation by operation). Generic algorithm
//! code written against [`Float`] therefore runs unchanged on `HostF32` at
//! native speed, reproducing the emulated FP32 results bit for bit.
//!
//! The one licensed difference is NaN *payloads*: the emulator always
//! produces the canonical quiet NaN (`0x7FC0_0000`), while hardware
//! propagates operand payloads. [`HostF32::from_f64`] canonicalizes, so
//! pipelines whose only NaN source is `from_f64` stay bit-identical even
//! through NaN-producing paths on the common platforms (x86-64, AArch64
//! with default FPCR), which quieten/propagate the canonical payload
//! unchanged.
//!
//! # Examples
//!
//! ```
//! use softfloat::{Float, Fp32, HostF32};
//!
//! let a = 0.1f64;
//! let b = 0.2f64;
//! let emulated = Fp32::from_f64(a) + Fp32::from_f64(b);
//! let native = HostF32::from_f64(a) + HostF32::from_f64(b);
//! assert_eq!(native.to_bits(), emulated.to_bits());
//! ```

use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

use crate::{Float, Fp32};

/// Host-native IEEE binary32 with the [`Float`] interface: the same
/// `(E, M) = (8, 23)` layout as [`Fp32`], executed by the CPU's FPU
/// instead of the bit-level emulator.
///
/// See the crate docs for the bit-identity contract and its caveat
/// (NaN payloads).
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct HostF32(pub f32);

/// The canonical quiet-NaN bit pattern the emulator produces.
const CANONICAL_NAN_BITS: u32 = 0x7FC0_0000;

impl HostF32 {
    /// Positive zero.
    pub const ZERO: Self = HostF32(0.0);
    /// The value 1.
    pub const ONE: Self = HostF32(1.0);

    /// Reinterpret an emulated [`Fp32`] value (exact, bit-identical).
    #[inline]
    pub fn from_fp32(x: Fp32) -> Self {
        HostF32(f32::from_bits(x.to_bits()))
    }

    /// Reinterpret as an emulated [`Fp32`] value (exact, bit-identical).
    #[inline]
    pub fn to_fp32(self) -> Fp32 {
        Fp32::from_bits(self.0.to_bits())
    }
}

impl From<Fp32> for HostF32 {
    fn from(x: Fp32) -> Self {
        Self::from_fp32(x)
    }
}

impl From<HostF32> for Fp32 {
    fn from(x: HostF32) -> Self {
        x.to_fp32()
    }
}

impl fmt::Display for HostF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Add for HostF32 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        HostF32(self.0 + rhs.0)
    }
}

impl Sub for HostF32 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        HostF32(self.0 - rhs.0)
    }
}

impl Mul for HostF32 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        HostF32(self.0 * rhs.0)
    }
}

impl Div for HostF32 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        HostF32(self.0 / rhs.0)
    }
}

impl Neg for HostF32 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        HostF32(-self.0)
    }
}

impl Float for HostF32 {
    const EXP_BITS: u32 = 8;
    const MANT_BITS: u32 = 23;
    const BIAS: i32 = 127;
    const BITS: u32 = 32;
    // NAME identifies the *format*, which is exactly FP32 — reports stay
    // consistent with the emulated type; the execution engine is named by
    // the backend layer, not the format.
    const NAME: &'static str = "FP32";

    #[inline]
    fn zero() -> Self {
        Self::ZERO
    }

    #[inline]
    fn one() -> Self {
        Self::ONE
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        if x.is_nan() {
            // The emulator's single canonical quiet NaN; a plain `as f32`
            // cast would leave the payload platform-defined.
            return HostF32(f32::from_bits(CANONICAL_NAN_BITS));
        }
        // `as` is the correctly rounded (RNE) f64 → f32 conversion with
        // subnormal support and saturation-to-∞ — exactly `Fp32::from_f64`.
        HostF32(x as f32)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self.0)
    }

    #[inline]
    fn to_bits(self) -> u32 {
        self.0.to_bits()
    }

    #[inline]
    fn from_bits(bits: u32) -> Self {
        HostF32(f32::from_bits(bits))
    }

    #[inline]
    fn exponent_field(self) -> u32 {
        (self.0.to_bits() >> 23) & 0xFF
    }

    #[inline]
    fn from_fields(sign: bool, exp_field: u32, mantissa: u32) -> Self {
        let mut bits = (exp_field & 0xFF) << 23;
        bits |= mantissa & 0x007F_FFFF;
        if sign {
            bits |= 0x8000_0000;
        }
        HostF32(f32::from_bits(bits))
    }

    #[inline]
    fn scale_by_pow2(self, k: i32) -> Self {
        // Exact ldexp via f64: the f32 significand scaled by 2^k stays a
        // normal f64 for every |k| ≤ 600 that can still change the result
        // (beyond that any finite f32 has already saturated to ±∞ or
        // flushed to ±0), so the single f64 → f32 rounding reproduces the
        // emulator's round-once-on-subnormal-entry semantics bit for bit
        // (oracle: `tests/native_equiv.rs::scale_by_pow2_matches_native_ldexp`).
        // 2^k is built from its f64 exponent bits, not `exp2`: ±600 lies
        // well inside f64's normal exponent range (−1022..=1023), so the
        // biased field `k + 1023` with a zero significand is exactly 2^k.
        let k = k.clamp(-600, 600);
        let pow2 = f64::from_bits(((k + 1023) as u64) << 52);
        HostF32((f64::from(self.0) * pow2) as f32)
    }

    #[inline]
    fn sqrt(self) -> Self {
        HostF32(self.0.sqrt())
    }

    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        HostF32(self.0.mul_add(b.0, c.0))
    }

    #[inline]
    fn is_nan(self) -> bool {
        self.0.is_nan()
    }

    #[inline]
    fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    #[inline]
    fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    #[inline]
    fn is_sign_negative(self) -> bool {
        self.0.is_sign_negative()
    }

    #[inline]
    fn abs(self) -> Self {
        HostF32(self.0.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_fp32() {
        assert_eq!(<HostF32 as Float>::EXP_BITS, <Fp32 as Float>::EXP_BITS);
        assert_eq!(<HostF32 as Float>::MANT_BITS, <Fp32 as Float>::MANT_BITS);
        assert_eq!(<HostF32 as Float>::BIAS, <Fp32 as Float>::BIAS);
        assert_eq!(<HostF32 as Float>::BITS, <Fp32 as Float>::BITS);
        // Same format, same name: reports must not fork on the backend.
        assert_eq!(<HostF32 as Float>::NAME, <Fp32 as Float>::NAME);
    }

    #[test]
    fn bridge_round_trips_bits() {
        for bits in [0u32, 0x8000_0000, 0x3F80_0000, 0x7FC0_0000, 0x0000_0001] {
            let h = HostF32::from_bits(bits);
            assert_eq!(h.to_fp32().to_bits(), bits);
            assert_eq!(HostF32::from_fp32(Fp32::from_bits(bits)).to_bits(), bits);
        }
    }

    #[test]
    fn from_f64_canonicalizes_nan() {
        assert_eq!(HostF32::from_f64(f64::NAN).to_bits(), 0x7FC0_0000);
        assert_eq!(
            HostF32::from_f64(f64::NAN).to_bits(),
            Fp32::from_f64(f64::NAN).to_bits()
        );
    }

    #[test]
    fn display_matches_inner_f32() {
        assert_eq!(format!("{}", HostF32(1.5)), format!("{}", 1.5f32));
    }
}
