//! Q15 fixed-point helpers shared by the golden references.
//!
//! All kernels use the MMX-era signed 16-bit fixed-point conventions:
//! Q15 sample values, products accumulated in 32 bits, arithmetic
//! right-shift rescaling, and saturation on narrowing — matching the
//! packed instruction semantics in `subword-isa::semantics` bit for bit.

/// Saturate a 32-bit value into i16 (what `packssdw` does per lane).
#[inline]
pub fn sat16(x: i32) -> i16 {
    x.clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// The `pmaddwd` primitive on a 4-element window: `Σ a[i]·b[i]` in i32
/// (wrapping, as the hardware does — only representable-overflow inputs
/// are used by the kernels, checked by tests).
#[inline]
pub fn madd4(a: &[i16], b: &[i16]) -> i32 {
    debug_assert!(a.len() >= 4 && b.len() >= 4);
    let p0 = (a[0] as i32).wrapping_mul(b[0] as i32).wrapping_add((a[1] as i32) * b[1] as i32);
    let p1 = (a[2] as i32).wrapping_mul(b[2] as i32).wrapping_add((a[3] as i32) * b[3] as i32);
    p0.wrapping_add(p1)
}

/// Convert an f64 in [-1, 1) to Q15.
#[inline]
pub fn to_q15(x: f64) -> i16 {
    sat16((x * 32768.0).round() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::lane::{from_iwords, idwords_of};
    use subword_isa::semantics;

    #[test]
    fn sat16_limits() {
        assert_eq!(sat16(40000), i16::MAX);
        assert_eq!(sat16(-40000), i16::MIN);
        assert_eq!(sat16(123), 123);
    }

    /// `madd4` must agree with the packed `pmaddwd`+`paddd` pipeline.
    #[test]
    fn madd4_matches_pmaddwd() {
        let a = [1000i16, -2000, 30000, -32768];
        let b = [-3i16, 7, 11, -13];
        let packed = semantics::pmaddwd(from_iwords(a), from_iwords(b));
        let d = idwords_of(packed);
        assert_eq!(madd4(&a, &b), d[0].wrapping_add(d[1]));
    }

    #[test]
    fn to_q15_bounds() {
        assert_eq!(to_q15(0.0), 0);
        assert_eq!(to_q15(0.5), 16384);
        assert_eq!(to_q15(-1.0), i16::MIN);
        assert_eq!(to_q15(1.0), i16::MAX); // saturates
    }
}
