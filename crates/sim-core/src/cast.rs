//! Blessed numeric conversions for sim crates (lint rule **R8**).
//!
//! A bare `as` cast between integer widths truncates silently, and
//! `f64 as u64` saturates-with-NaN-to-zero semantics that few readers can
//! recite. Inside the simulation crates those silent edges are exactly
//! where determinism bugs hide, so R8 (DESIGN.md §2b) requires narrowing and
//! float→int casts to go through this module: every helper either proves
//! the conversion lossless in debug builds (`debug_assert!`) or documents
//! its saturation contract in its name.
//!
//! Widening casts (`u32 as u64`, `usize as f64`) stay legal everywhere —
//! they cannot lose integer precision — as do casts in `sim-core` itself,
//! which is the one crate allowed to own raw representation changes
//! (mirroring R3's time-cast carve-out).

/// `usize` → `u32`, saturating at `u32::MAX`. Debug-asserts losslessness:
/// sim quantities that reach `u32` fields (CTA counts, page ids) are far
/// below 2³² by construction, so a clamp firing is a modeling bug.
#[inline]
pub fn usize_to_u32(v: usize) -> u32 {
    debug_assert!(u32::try_from(v).is_ok(), "usize_to_u32 overflow: {v}");
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// `usize` → `u64`. Lossless on every supported target (Rust supports no
/// >64-bit `usize`); spelled as a helper so call sites stay `as`-free.
#[inline]
pub fn usize_to_u64(v: usize) -> u64 {
    v as u64
}

/// `usize` → `isize`, saturating at `isize::MAX`. Debug-asserts
/// losslessness — index arithmetic that overflows the signed half-range
/// indicates a sizing bug, not a value to clamp.
#[inline]
pub fn usize_to_isize(v: usize) -> isize {
    debug_assert!(isize::try_from(v).is_ok(), "usize_to_isize overflow: {v}");
    isize::try_from(v).unwrap_or(isize::MAX)
}

/// `u64` → `usize`, saturating at `usize::MAX`. Lossless on 64-bit
/// targets; the saturation only exists for hypothetical 32-bit hosts.
#[inline]
pub fn u64_to_usize(v: u64) -> usize {
    debug_assert!(usize::try_from(v).is_ok(), "u64_to_usize overflow: {v}");
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// `u64` → `u32`, saturating at `u32::MAX`, with a debug-assert that the
/// value fit.
#[inline]
pub fn u64_to_u32(v: u64) -> u32 {
    debug_assert!(u32::try_from(v).is_ok(), "u64_to_u32 overflow: {v}");
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// `f64` → `u64` with explicit saturation: NaN → 0, negatives → 0, values
/// above `u64::MAX` → `u64::MAX`, fractional part truncated toward zero.
/// (These are the semantics of `as` since Rust 1.45, but spelled out.)
#[inline]
pub fn f64_to_u64(v: f64) -> u64 {
    if v.is_nan() {
        return 0;
    }
    v.clamp(0.0, u64::MAX as f64) as u64
}

/// `f64` → `usize` with the same saturation contract as [`f64_to_u64`].
#[inline]
pub fn f64_to_usize(v: f64) -> usize {
    u64_to_usize(f64_to_u64(v))
}

/// `f64` → `i64` with explicit saturation: NaN → 0, out-of-range values
/// clamp to the `i64` bounds, fractional part truncated toward zero.
#[inline]
pub fn f64_to_i64(v: f64) -> i64 {
    if v.is_nan() {
        return 0;
    }
    v.clamp(i64::MIN as f64, i64::MAX as f64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_helpers_are_identity_in_range() {
        assert_eq!(usize_to_u32(123), 123);
        assert_eq!(usize_to_u64(123), 123);
        assert_eq!(usize_to_isize(123), 123);
        assert_eq!(u64_to_usize(123), 123);
        assert_eq!(u64_to_u32(123), 123);
    }

    #[test]
    fn float_helpers_saturate_and_zero_nan() {
        assert_eq!(f64_to_u64(f64::NAN), 0);
        assert_eq!(f64_to_u64(-3.5), 0);
        assert_eq!(f64_to_u64(3.9), 3);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(f64_to_usize(2.999), 2);
        assert_eq!(f64_to_i64(f64::NAN), 0);
        assert_eq!(f64_to_i64(-2.7), -2);
        assert_eq!(f64_to_i64(f64::NEG_INFINITY), i64::MIN);
    }
}
