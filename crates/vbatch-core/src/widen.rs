//! Storage precision as a type parameter.
//!
//! The paper's Fig. 4/5 show the SP batched factorization running at
//! roughly twice the DP flop rate with half the memory traffic; the
//! block-Jacobi *apply*, however, must stay accurate in the working
//! precision of the Krylov solver. So factors may be *stored* narrower
//! than they are *applied*: every solve kernel of this crate
//! ([`crate::trsv`]'s [`crate::LuView`] solves, whether the view is a
//! block's own factor or an interleaved class slot, and
//! [`crate::gauss_huard`]) takes the factor's storage scalar `S` and the
//! working scalar `T` as separate type parameters, related by
//! [`Stored`], and widens each factor element as it reads it — the
//! right-hand side and every accumulation stay in `T`. The `S = T`
//! instance is the native kernel (the widening is the identity and
//! compiles away); the `S = T::Lower` instance runs the same fused
//! multiply-add sequence per element on widened reads. Combined with one
//! step of iterative refinement against the retained working-precision
//! block ([`residual_into`]), a well-conditioned block solved through
//! narrowed factors converges to working accuracy.

use crate::gauss_huard::GhFactors;
use crate::scalar::Scalar;

/// Which storage format a factor actually occupies, relative to the
/// working precision of the batch it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoragePrecision {
    /// Stored in the working precision `T`.
    Native,
    /// Stored narrowed to [`Scalar::Lower`] and widened on read.
    Lower,
}

impl StoragePrecision {
    /// All storage precisions, for exhaustive tests and histograms.
    pub const ALL: [StoragePrecision; 2] = [StoragePrecision::Native, StoragePrecision::Lower];

    /// Stable label used by the `ExecStats` precision histogram and the
    /// benchmark CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            StoragePrecision::Native => "native",
            StoragePrecision::Lower => "lower",
        }
    }
}

/// A factor container in one of the two storage precisions of a working
/// scalar: `N` holds `T` values, `L` holds `T::Lower` values. Code that
/// must run on either matches once and calls a kernel generic over
/// [`Stored`] in each arm.
#[derive(Clone, Debug)]
pub enum Storage<N, L> {
    /// Working-precision storage.
    Native(N),
    /// Narrowed storage.
    Lower(L),
}

impl<N, L> Storage<N, L> {
    /// Which arm this is.
    pub fn precision(&self) -> StoragePrecision {
        match self {
            Storage::Native(_) => StoragePrecision::Native,
            Storage::Lower(_) => StoragePrecision::Lower,
        }
    }
}

/// Factor values of working scalar `T` in either storage precision.
pub type StoredVec<T> = Storage<Vec<T>, Vec<<T as Scalar>::Lower>>;
/// Gauss-Huard factors of working scalar `T` in either storage precision.
pub type StoredGh<T> = Storage<GhFactors<T>, GhFactors<<T as Scalar>::Lower>>;

/// The widening-read relation: a factor element stored as `Self` is read
/// into working precision `T`. Reflexive for every [`Scalar`] (the
/// native case) and implemented for `T::Lower` (`f32` stored, `f64`
/// working); [`Scalar::Lower`] is bounded by it, so generic code can
/// always instantiate a kernel at `S = T::Lower`.
pub trait Stored<T: Scalar>: Scalar {
    /// The [`Storage`] arm containers of `Self` values belong in.
    const STORAGE: StoragePrecision;
    /// Widening read into working precision (exact).
    fn widen(self) -> T;
    /// Narrowing conversion into the storage format (round-to-nearest).
    fn narrow(x: T) -> Self;
    /// Tag factor values with their storage precision.
    fn store_vec(values: Vec<Self>) -> StoredVec<T>;
    /// Tag Gauss-Huard factors with their storage precision.
    fn store_gh(factors: GhFactors<Self>) -> StoredGh<T>;
}

impl<T: Scalar> Stored<T> for T {
    const STORAGE: StoragePrecision = StoragePrecision::Native;
    #[inline]
    fn widen(self) -> T {
        self
    }
    #[inline]
    fn narrow(x: T) -> T {
        x
    }
    fn store_vec(values: Vec<T>) -> StoredVec<T> {
        Storage::Native(values)
    }
    fn store_gh(factors: GhFactors<T>) -> StoredGh<T> {
        Storage::Native(factors)
    }
}

impl Stored<f64> for f32 {
    const STORAGE: StoragePrecision = StoragePrecision::Lower;
    #[inline]
    fn widen(self) -> f64 {
        self as f64
    }
    #[inline]
    fn narrow(x: f64) -> f32 {
        x as f32
    }
    fn store_vec(values: Vec<f32>) -> StoredVec<f64> {
        Storage::Lower(values)
    }
    fn store_gh(factors: GhFactors<f32>) -> StoredGh<f64> {
        Storage::Lower(factors)
    }
}

/// Copy a working-precision block into fresh storage of scalar `S`
/// (a plain copy for `S = T`, a rounding demotion for `S = T::Lower`).
pub fn narrow_slice<T: Scalar, S: Stored<T>>(a: &[T]) -> Vec<S> {
    a.iter().map(|&v| S::narrow(v)).collect()
}

/// One step of iterative refinement against the retained full-precision
/// block: `resid := saved_rhs - A x`, computed in `T` with fused
/// multiply-adds. `a` is the column-major `n x n` block, `x` the current
/// iterate, `saved_rhs` the original right-hand side; the residual lands
/// in `resid` (length `n`).
pub fn residual_into<T: Scalar>(n: usize, a: &[T], x: &[T], saved_rhs: &[T], resid: &mut [T]) {
    debug_assert_eq!(a.len(), n * n);
    resid.copy_from_slice(saved_rhs);
    for (j, &xj) in x.iter().enumerate() {
        let col = &a[j * n..j * n + n];
        for (i, ri) in resid.iter_mut().enumerate() {
            *ri = (-col[i]).mul_add(xj, *ri);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMat;
    use crate::gauss_huard::{gh_factorize, GhLayout};
    use crate::interleaved::InterleavedClass;
    use crate::lu::implicit::getrf_implicit_inplace;
    use crate::trsv::LuView;
    use crate::MatrixBatch;

    fn dd_mat(n: usize, seed: usize) -> DenseMat<f64> {
        DenseMat::from_fn(n, n, |i, j| {
            let h = (i * 131 + j * 37 + seed * 17 + 3) % 1024;
            h as f64 / 512.0 - 1.0 + if i == j { (n + 2) as f64 } else { 0.0 }
        })
    }

    #[test]
    fn storage_precision_labels_are_stable() {
        assert_eq!(StoragePrecision::Native.label(), "native");
        assert_eq!(StoragePrecision::Lower.label(), "lower");
        assert_eq!(StoragePrecision::ALL.len(), 2);
    }

    #[test]
    fn sp_stored_lu_solve_recovers_dp_solution_to_sp_accuracy() {
        for n in [2usize, 5, 12, 24] {
            let a = dd_mat(n, 9);
            let x_true: Vec<f64> = (0..n).map(|i| 1.0 - 0.5 * (i % 3) as f64).collect();
            let b = a.matvec(&x_true);
            let mut lu_sp = narrow_slice::<f64, f32>(a.as_slice());
            let perm = getrf_implicit_inplace(n, &mut lu_sp).unwrap();
            let mut x = b.clone();
            let mut scratch = vec![0.0f64; n];
            LuView::new(&lu_sp, perm.as_slice()).solve_inplace(&mut x, &mut scratch);
            for (got, want) in x.iter().zip(&x_true) {
                assert!(
                    (got - want).abs() < 1e-4 * (1.0 + want.abs()),
                    "n={n}: {got} vs {want}"
                );
            }
            // one refinement step against the DP block reaches far
            // beyond bare SP accuracy on these well-conditioned blocks
            let mut resid = vec![0.0f64; n];
            residual_into(n, a.as_slice(), &x, &b, &mut resid);
            let mut e = resid.clone();
            LuView::new(&lu_sp, perm.as_slice()).solve_inplace(&mut e, &mut scratch);
            for i in 0..n {
                x[i] += e[i];
            }
            for (got, want) in x.iter().zip(&x_true) {
                assert!(
                    (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                    "n={n} refined: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn sp_stored_gh_solve_recovers_solution() {
        for n in [2usize, 6, 13] {
            let a = dd_mat(n, 3);
            let x_true: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
            let b = a.matvec(&x_true);
            let a_sp = DenseMat::<f32>::from_fn(n, n, |i, j| a[(i, j)] as f32);
            for layout in [GhLayout::Normal, GhLayout::Transposed] {
                let f = gh_factorize(&a_sp, layout).unwrap();
                let mut x = b.clone();
                let mut scratch = vec![0.0f64; n];
                f.solve_inplace_scratch(&mut x, &mut scratch);
                for (got, want) in x.iter().zip(&x_true) {
                    assert!(
                        (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                        "n={n} {layout:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn sp_stored_interleaved_slot_solve_recovers_solution() {
        // pack a DP batch narrowing to SP, factorize interleaved in SP,
        // and check each slot's solve (DP right-hand side, widened
        // factor reads) against the DP solution
        let n = 4;
        let count = 5;
        let batch =
            MatrixBatch::<f64>::uniform_from_fn(count, n, |blk, i, j| dd_mat(n, blk)[(i, j)]);
        let members: Vec<usize> = (0..count).collect();
        let class = InterleavedClass::<f32>::pack_from(&batch, &members);
        for (slot, &blk) in members.iter().enumerate() {
            assert_eq!(class.get(slot, 1, 2), batch.block(blk)[2 * n + 1] as f32);
        }
        let (n2, _blocks, mut data) = class.into_parts();
        assert_eq!(n2, n);
        let mut row_of_step = vec![0usize; n * count];
        let errs = crate::interleaved_simd::getrf_interleaved_class_simd(
            n,
            count,
            &mut data,
            &mut row_of_step,
        );
        assert!(errs.iter().all(|e| e.is_none()));
        for slot in 0..count {
            let b0: Vec<f64> = (0..n).map(|i| 1.0 + ((slot + i) % 3) as f64).collect();
            let mut x = b0.clone();
            let mut scratch = vec![0.0f64; n];
            LuView::slot(n, count, slot, &data, &row_of_step)
                .solve_inplace::<f64>(&mut x, &mut scratch);
            let x_true = crate::lu::solve_system(&dd_mat(n, slot), &b0).unwrap();
            for (got, want) in x.iter().zip(&x_true) {
                assert!(
                    (got - want).abs() < 1e-4 * (1.0 + want.abs()),
                    "slot {slot}: {got} vs {want}"
                );
            }
        }
    }
}
