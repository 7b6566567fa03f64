//! Portable explicit-wide-lane chunks for the interleaved class kernels.
//!
//! A [`Chunk<T, W>`] is a fixed-width array of `W` lanes of `T` whose
//! element-wise operations are written as plain per-lane loops the
//! compiler auto-vectorizes. With `-C target-cpu=native` an op becomes
//! one vector instruction when `W` lanes fill the vector width LLVM
//! *prefers*, which is not always the widest the host has: on AVX-512
//! hosts where `prefer-256-bit` is the target default (the Xeon guest
//! the ledger runs on is one) a `W = 8` f64 op is emitted as a pair of
//! 256-bit instructions — the ledger binary holds 495 `ymm` against 6
//! `zmm` packed-double FMAs. The lane *count* per group is still 8;
//! only the instruction count per op doubles.
//! There is no `std::simd`/intrinsics dependency, so the same code
//! builds — and stays correct, just scalar — on any target.
//!
//! Design rules that the batched-LU kernels rely on:
//!
//! * every lane op performs exactly the scalar IEEE operation per lane
//!   (`div` is a true division, `mul_add` a single-rounding fused
//!   multiply-add, [`Chunk::select`] a compare-and-blend that returns
//!   one of the two inputs **bitwise**, never an arithmetic mix) — this
//!   is what makes the lane kernels bitwise-identical to the per-block
//!   kernels for every slot;
//! * masks are carried as lanes of `T` (`0.0` / `1.0` flag lanes built
//!   by the kernels, or [`Mask`] bool arrays from comparisons) so the
//!   hot selects vectorize instead of round-tripping through integer
//!   lanes.
//!
//! [`lane_width`] is the run-time width, read off the host vector ISA
//! (AVX-512F → 64-byte vectors, AVX2 → 32, anything else → 16) and
//! clamped to the supported widths {2, 4, 8}. The kernels are
//! bitwise-identical at every width, so nothing chooses another one:
//! tests drive each width through the kernels' width-explicit entry
//! points.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::OnceLock;

/// Largest lane width any kernel instantiates (AVX-512 × f64).
pub const MAX_LANE_WIDTH: usize = 8;

/// Element types that can ride in a [`Chunk`] lane.
///
/// Deliberately minimal and with `lane_`-prefixed names so it can be a
/// supertrait of richer numeric traits (e.g. `vbatch_core::Scalar`)
/// without creating method-resolution ambiguity in existing generic
/// code.
pub trait SimdElem:
    Copy
    + Send
    + Sync
    + Default
    + PartialOrd
    + std::fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Additive identity.
    const LANE_ZERO: Self;
    /// Multiplicative identity.
    const LANE_ONE: Self;
    /// Fused multiply-add with a single rounding: `self * a + b`.
    fn lane_mul_add(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn lane_abs(self) -> Self;
    /// Neither NaN nor infinite.
    fn lane_is_finite(self) -> bool;
}

impl SimdElem for f32 {
    const LANE_ZERO: Self = 0.0;
    const LANE_ONE: Self = 1.0;
    #[inline(always)]
    fn lane_mul_add(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
    #[inline(always)]
    fn lane_abs(self) -> Self {
        self.abs()
    }
    #[inline(always)]
    fn lane_is_finite(self) -> bool {
        self.is_finite()
    }
}

impl SimdElem for f64 {
    const LANE_ZERO: Self = 0.0;
    const LANE_ONE: Self = 1.0;
    #[inline(always)]
    fn lane_mul_add(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
    #[inline(always)]
    fn lane_abs(self) -> Self {
        self.abs()
    }
    #[inline(always)]
    fn lane_is_finite(self) -> bool {
        self.is_finite()
    }
}

/// A `W`-wide vector of lanes, `f64xN`/`f32xN` style.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct Chunk<T, const W: usize>(pub [T; W]);

/// Per-lane boolean mask produced by [`Chunk`] comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct Mask<const W: usize>(pub [bool; W]);

impl<const W: usize> Mask<W> {
    /// Lane-wise OR.
    #[inline(always)]
    pub fn or(self, rhs: Self) -> Self {
        let mut m = [false; W];
        for w in 0..W {
            m[w] = self.0[w] || rhs.0[w];
        }
        Mask(m)
    }

    /// Lane-wise AND.
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        let mut m = [false; W];
        for w in 0..W {
            m[w] = self.0[w] && rhs.0[w];
        }
        Mask(m)
    }

    /// `true` if any lane is set (horizontal OR).
    #[inline(always)]
    pub fn any(self) -> bool {
        let mut any = false;
        for w in 0..W {
            any |= self.0[w];
        }
        any
    }
}

// The arithmetic methods deliberately mirror the scalar lane-op names
// (add/sub/mul/div/neg) as plain inherent methods: the kernels read as
// straight-line lane algebra, and the operator traits would force
// by-ref/by-value choices on every call site for no gain.
#[allow(clippy::should_implement_trait)]
impl<T: SimdElem, const W: usize> Chunk<T, W> {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: T) -> Self {
        Chunk([v; W])
    }

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(T::LANE_ZERO)
    }

    /// Load the first `W` elements of `src` (contiguous lanes).
    #[inline(always)]
    pub fn load(src: &[T]) -> Self {
        let mut v = [T::LANE_ZERO; W];
        v.copy_from_slice(&src[..W]);
        Chunk(v)
    }

    /// Store all lanes into the first `W` elements of `dst`.
    #[inline(always)]
    pub fn store(self, dst: &mut [T]) {
        dst[..W].copy_from_slice(&self.0);
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = v[w] + rhs.0[w];
        }
        Chunk(v)
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = v[w] - rhs.0[w];
        }
        Chunk(v)
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = v[w] * rhs.0[w];
        }
        Chunk(v)
    }

    /// Lane-wise true IEEE division `self / rhs`.
    #[inline(always)]
    pub fn div(self, rhs: Self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = v[w] / rhs.0[w];
        }
        Chunk(v)
    }

    /// Lane-wise negation.
    #[inline(always)]
    pub fn neg(self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = -v[w];
        }
        Chunk(v)
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = v[w].lane_abs();
        }
        Chunk(v)
    }

    /// Lane-wise fused multiply-add with one rounding: `self * a + b`.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut v = self.0;
        for w in 0..W {
            v[w] = v[w].lane_mul_add(a.0[w], b.0[w]);
        }
        Chunk(v)
    }

    /// Mask of lanes exactly equal to zero (`-0.0` compares equal).
    #[inline(always)]
    pub fn eq_zero(self) -> Mask<W> {
        let mut m = [false; W];
        for w in 0..W {
            m[w] = self.0[w] == T::LANE_ZERO;
        }
        Mask(m)
    }

    /// Mask of lanes not equal to zero. Used on the `0.0`/`1.0` flag
    /// lanes the kernels maintain, where it is exact.
    #[inline(always)]
    pub fn ne_zero(self) -> Mask<W> {
        let mut m = [false; W];
        for w in 0..W {
            m[w] = self.0[w] != T::LANE_ZERO;
        }
        Mask(m)
    }

    /// Mask of lanes where `self > rhs` (strict, IEEE: false on NaN).
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> Mask<W> {
        let mut m = [false; W];
        for w in 0..W {
            m[w] = self.0[w] > rhs.0[w];
        }
        Mask(m)
    }

    /// Exact per-lane select: `mask ? if_true : if_false`.
    ///
    /// Returns one of the two input lanes bit-for-bit (a blend, never
    /// an arithmetic combination) — required for the bitwise contract.
    #[inline(always)]
    pub fn select(mask: Mask<W>, if_true: Self, if_false: Self) -> Self {
        let mut v = if_false.0;
        for w in 0..W {
            if mask.0[w] {
                v[w] = if_true.0[w];
            }
        }
        Chunk(v)
    }
}

impl<T, const W: usize> From<[T; W]> for Chunk<T, W> {
    #[inline(always)]
    fn from(v: [T; W]) -> Self {
        Chunk(v)
    }
}

/// Vector register width of the host in bytes, detected once.
fn vector_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                64
            } else if std::arch::is_x86_feature_detected!("avx2") {
                32
            } else {
                16
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            16
        }
    })
}

/// Run-time lane width for elements of `elem_bytes` bytes: the host
/// vector width divided by the element size, clamped to
/// `[2, MAX_LANE_WIDTH]` — so f64 gets 8 on AVX-512, 4 on AVX2, 2
/// elsewhere, and f32 gets 8 on both AVX generations.
pub fn lane_width(elem_bytes: usize) -> usize {
    (vector_bytes() / elem_bytes.max(1)).clamp(2, MAX_LANE_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_width_is_supported_and_consistent() {
        for bytes in [4usize, 8] {
            let w = lane_width(bytes);
            assert!(matches!(w, 2 | 4 | 8), "width {w} for {bytes}-byte lanes");
        }
        // deterministic across calls (OnceLock-cached)
        assert_eq!(lane_width(8), lane_width(8));
        // f32 lanes are at least as wide as f64's
        assert!(lane_width(4) >= lane_width(8));
    }

    #[test]
    fn select_is_bitwise_exact() {
        // select must return the *input bits*, not an arithmetic blend:
        // -0.0 and 0.0 are distinguishable only bitwise
        let a = Chunk::<f64, 4>::from([-0.0, 1.0, f64::NAN, 3.0]);
        let b = Chunk::<f64, 4>::from([7.0, -0.0, 2.0, f64::INFINITY]);
        let m = Mask([true, false, true, false]);
        let r = Chunk::select(m, a, b);
        assert_eq!(r.0[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.0[1].to_bits(), (-0.0f64).to_bits());
        assert!(r.0[2].is_nan());
        assert_eq!(r.0[3], f64::INFINITY);
    }

    #[test]
    fn mul_add_is_fused_single_rounding() {
        // a*b+c where a*b rounds differently unfused: classic FMA probe
        let a = 1.0 + f64::EPSILON;
        let fused = Chunk::<f64, 2>::splat(a).mul_add(Chunk::splat(a), Chunk::splat(-1.0));
        let scalar = a.mul_add(a, -1.0);
        for w in 0..2 {
            assert_eq!(fused.0[w].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn gt_sub_and_any_match_scalar_semantics() {
        let x = Chunk::<f64, 4>::from([1.0, -2.0, f64::NAN, 0.0]);
        let y = Chunk::<f64, 4>::from([0.5, -2.0, 1.0, -0.0]);
        // strict >; NaN compares false; 0.0 > -0.0 is false
        assert_eq!(x.gt(y), Mask([true, false, false, false]));
        let d = x.sub(y);
        assert_eq!(d.0[0].to_bits(), 0.5f64.to_bits());
        assert!(d.0[2].is_nan());
        // (v - v).ne_zero() is the vector non-finite probe
        assert_eq!(x.sub(x).ne_zero(), Mask([false, false, true, false]));
        assert!(Mask([false, true, false, false]).any());
        assert!(!Mask::<4>([false; 4]).any());
    }

    #[test]
    fn ops_match_scalar_semantics_per_lane() {
        let x = Chunk::<f32, 8>::from([1.5, -2.0, 0.0, -0.0, 3.25, -4.5, 8.0, 0.125]);
        let y = Chunk::<f32, 8>::splat(2.0);
        let d = x.div(y);
        let n = x.neg();
        let ab = x.abs();
        for w in 0..8 {
            assert_eq!(d.0[w].to_bits(), (x.0[w] / 2.0).to_bits());
            assert_eq!(n.0[w].to_bits(), (-x.0[w]).to_bits());
            assert_eq!(ab.0[w].to_bits(), x.0[w].abs().to_bits());
        }
        assert_eq!(
            x.eq_zero(),
            Mask([false, false, true, true, false, false, false, false])
        );
    }
}
