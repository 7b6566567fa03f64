//! Floating-point scalar abstraction.
//!
//! All kernels in this workspace are generic over [`Scalar`], which is
//! implemented for `f32` ("single precision" in the paper's plots) and
//! `f64` ("double precision"). The trait deliberately exposes only the
//! operations the batched kernels need, plus a few constants used by the
//! SIMT cost model (register width, element size).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::widen::Stored;

/// Real floating-point scalar usable in every kernel of the workspace.
///
/// [`vbatch_rt::simd::SimdElem`] is a supertrait so every `Scalar` can
/// ride in a [`vbatch_rt::simd::Chunk`] lane — that is what lets the
/// SIMD interleaved kernels stay generic over the same `T` as the rest
/// of the stack. (`SimdElem` uses `lane_`-prefixed method names, so no
/// resolution ambiguity arises with the methods below.)
pub trait Scalar:
    vbatch_rt::simd::SimdElem
    + Copy
    + Send
    + Sync
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Default
    + Sum
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one element in bytes (4 for `f32`, 8 for `f64`); used by
    /// the SIMT memory-transaction model.
    const BYTES: usize;
    /// Short human-readable precision label used in benchmark output.
    const PRECISION: &'static str;

    /// The next-narrower storage format of this precision (`f32` for
    /// `f64`; `f32` is its own floor). Mixed-precision factor storage
    /// keeps SP factors of type `Self::Lower` and widens each element
    /// back through [`Stored::widen`] on read, so working precision
    /// stays `Self` throughout the solve.
    type Lower: Stored<Self>;
    /// `true` when [`Scalar::Lower`] is actually narrower than `Self`
    /// (`false` at the `f32` floor, where narrowing is the identity).
    const HAS_LOWER: bool;

    /// Machine epsilon of the format.
    fn epsilon() -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b` (single rounding).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lossy conversion from `f64` (used for literals and tolerances).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (used for norms and reporting).
    fn to_f64(self) -> f64;
    /// `true` if the value is finite (not NaN/±inf).
    fn is_finite(self) -> bool;
    /// Largest finite value.
    fn max_value() -> Self;

    /// Maximum of two values, propagating the larger (NaN-unsafe; the
    /// kernels only call this on finite data).
    #[inline]
    fn max(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }

    /// Minimum of two values (NaN-unsafe).
    #[inline]
    fn min(self, other: Self) -> Self {
        if self < other {
            self
        } else {
            other
        }
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    const PRECISION: &'static str = "single";

    type Lower = f32;
    const HAS_LOWER: bool = false;

    #[inline]
    fn epsilon() -> Self {
        f32::EPSILON
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn max_value() -> Self {
        f32::MAX
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    const PRECISION: &'static str = "double";

    type Lower = f32;
    const HAS_LOWER: bool = true;

    #[inline]
    fn epsilon() -> Self {
        f64::EPSILON
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn max_value() -> Self {
        f64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<T: Scalar>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::from_f64(2.5).to_f64(), 2.5);
        assert!(T::from_f64(-3.0).abs().to_f64() == 3.0);
        assert!(T::from_f64(4.0).sqrt().to_f64() == 2.0);
        assert!(T::epsilon().to_f64() > 0.0);
        assert!(T::ONE.is_finite());
        assert!(!(T::ONE / T::ZERO).is_finite());
    }

    #[test]
    fn f32_roundtrip() {
        generic_roundtrip::<f32>();
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f32::PRECISION, "single");
    }

    #[test]
    fn f64_roundtrip() {
        generic_roundtrip::<f64>();
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f64::PRECISION, "double");
    }

    #[test]
    fn mul_add_matches_expanded() {
        let r = 2.0f64.mul_add(3.0, 4.0);
        assert_eq!(r, 10.0);
        let r = 2.0f32.mul_add(3.0, 4.0);
        assert_eq!(r, 10.0);
    }

    #[test]
    fn narrow_widen_roundtrip() {
        fn has_lower<T: Scalar>() -> bool {
            T::HAS_LOWER
        }
        fn through_lower<T: Scalar>(x: T) -> T {
            <T::Lower as Stored<T>>::narrow(x).widen()
        }
        assert!(!has_lower::<f32>());
        assert!(has_lower::<f64>());
        // narrowing rounds, widening is exact
        assert_eq!(through_lower(1.0f64 + f64::EPSILON), 1.0);
        assert_eq!(through_lower(0.5f64), 0.5);
        // the f32 floor is the identity
        assert_eq!(
            through_lower(0.25f32 + f32::EPSILON),
            0.25f32 + f32::EPSILON
        );
    }

    #[test]
    fn min_max() {
        assert_eq!(Scalar::max(1.0f64, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f64, 2.0), 1.0);
        assert_eq!(Scalar::max(-1.0f32, -2.0), -1.0);
    }
}
