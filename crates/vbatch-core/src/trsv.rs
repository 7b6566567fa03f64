//! Triangular solves for combined LU storage (paper §III-B, Fig. 2).
//!
//! Two algorithmic variants exist for each triangle:
//!
//! * **lazy** — step `k` finishes `y_k` with a DOT product against the
//!   already-computed prefix (reads one *row* of the factor per step);
//! * **eager** — step `k` retires `y_k` and immediately updates the
//!   trailing vector with an AXPY (reads one *column* per step).
//!
//! The paper selects the eager variant for the GPU kernels because the
//! AXPY parallelizes trivially across the warp and, with column-major
//! storage, the column read is coalesced. Numerically the two variants
//! compute the same recurrence (up to rounding-order differences), which
//! the tests exploit.
//!
//! All functions operate on the *combined* LU matrix produced by the
//! `lu` module: the unit lower factor is the strict lower triangle (unit
//! diagonal implied) and the upper factor is the upper triangle including
//! the diagonal.

use crate::scalar::Scalar;
use crate::widen::Stored;

/// Which algorithmic variant of the triangular sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvVariant {
    /// DOT-based: finish one entry per step (Fig. 2 top).
    Lazy,
    /// AXPY-based: update the trailing vector per step (Fig. 2 bottom).
    Eager,
}

impl TrsvVariant {
    /// All variants, for exhaustive tests and benches.
    pub const ALL: [TrsvVariant; 2] = [TrsvVariant::Lazy, TrsvVariant::Eager];
}

#[inline]
fn at<T: Scalar, S: Stored<T>>(a: &[S], n: usize, i: usize, j: usize) -> T {
    debug_assert!(i < n && j < n);
    a[j * n + i].widen()
}

/// Solve `L y = b` in place with `L` unit lower triangular, stored in the
/// strict lower triangle of the column-major `n x n` matrix `a`.
///
/// Like every solve in this module the factor may be stored in a
/// narrower scalar `S` than the working scalar `T` of `b`
/// (see [`crate::widen`]); arithmetic is always in `T`.
#[inline]
pub fn trsv_lower_unit<T: Scalar, S: Stored<T>>(
    variant: TrsvVariant,
    n: usize,
    a: &[S],
    b: &mut [T],
) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    match variant {
        TrsvVariant::Lazy => {
            // b(k) -= L(k, 0..k) . b(0..k)
            for k in 1..n {
                let mut acc = b[k];
                for j in 0..k {
                    acc = (-at::<T, S>(a, n, k, j)).mul_add(b[j], acc);
                }
                b[k] = acc;
            }
        }
        TrsvVariant::Eager => {
            // b(k+1..n) -= L(k+1..n, k) * b(k)
            for k in 0..n.saturating_sub(1) {
                let bk = b[k];
                let col = &a[k * n..k * n + n];
                for i in k + 1..n {
                    b[i] = (-col[i].widen()).mul_add(bk, b[i]);
                }
            }
        }
    }
}

/// Solve `U x = b` in place with `U` upper triangular (diagonal included)
/// stored in the upper triangle of the column-major `n x n` matrix `a`.
#[inline]
pub fn trsv_upper<T: Scalar, S: Stored<T>>(variant: TrsvVariant, n: usize, a: &[S], b: &mut [T]) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    match variant {
        TrsvVariant::Lazy => {
            for k in (0..n).rev() {
                let mut acc = b[k];
                for j in k + 1..n {
                    acc = (-at::<T, S>(a, n, k, j)).mul_add(b[j], acc);
                }
                b[k] = acc / at::<T, S>(a, n, k, k);
            }
        }
        TrsvVariant::Eager => {
            for k in (0..n).rev() {
                let bk = b[k] / at::<T, S>(a, n, k, k);
                b[k] = bk;
                let col = &a[k * n..k * n + n];
                for i in 0..k {
                    b[i] = (-col[i].widen()).mul_add(bk, b[i]);
                }
            }
        }
    }
}

/// Full `getrs`-style solve: permute the right-hand side (`b := P b`),
/// then the unit-lower and upper sweeps, in place.
///
/// `row_of_step[k]` is the original row index selected as pivot of step
/// `k` (see [`crate::perm::Permutation`]); the permutation is applied
/// while "reading `b` into the registers", exactly as in §III-B.
pub fn lu_solve_inplace<T: Scalar>(
    variant: TrsvVariant,
    n: usize,
    lu: &[T],
    row_of_step: &[usize],
    b: &mut [T],
) {
    let mut scratch = vec![T::ZERO; n];
    lu_solve_inplace_scratch(variant, n, lu, row_of_step, b, &mut scratch);
}

/// [`lu_solve_inplace`] with caller-provided scratch (`scratch.len() >=
/// n`): the permutation gather lands in `scratch` instead of a fresh
/// vector, so the steady-state apply path performs no heap allocation.
/// Element-exact copies only — results are bitwise identical to the
/// allocating form.
#[inline]
pub fn lu_solve_inplace_scratch<T: Scalar, S: Stored<T>>(
    variant: TrsvVariant,
    n: usize,
    lu: &[S],
    row_of_step: &[usize],
    b: &mut [T],
    scratch: &mut [T],
) {
    debug_assert_eq!(row_of_step.len(), n);
    debug_assert!(scratch.len() >= n);
    // b := P b, performed out of place like the register gather on the GPU
    let permuted = &mut scratch[..n];
    for (k, &r) in row_of_step.iter().enumerate() {
        permuted[k] = b[r];
    }
    b.copy_from_slice(permuted);
    trsv_lower_unit(variant, n, lu, b);
    trsv_upper(variant, n, lu, b);
}

/// Eager `getrs` of `nrhs` right-hand sides at once: `b` is the
/// column-major `n × nrhs` matrix of right-hand sides, solved in place.
///
/// The permuted right-hand sides are gathered *transposed* into
/// `scratch` (`scratch[k * nrhs + c] = b[c * n + row_of_step(k)]`), so
/// each step of the two eager sweeps reads one factor entry and updates
/// a whole unit-stride row of `nrhs` values — the factor is streamed
/// once for all right-hand sides instead of once per column. Every
/// element sees exactly the operation sequence of
/// [`lu_solve_inplace_scratch`] with [`TrsvVariant::Eager`] on its own
/// column, so the results are bitwise identical to solving column by
/// column. `row_of_step(k)` is the pivot row of step `k` (a closure, so
/// strided pivot lanes need no copy); `scratch.len() >= n * nrhs`; no
/// heap allocation.
pub fn lu_solve_multi_inplace_scratch<T: Scalar>(
    n: usize,
    nrhs: usize,
    lu: &[T],
    row_of_step: impl Fn(usize) -> usize,
    b: &mut [T],
    scratch: &mut [T],
) {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(b.len(), n * nrhs);
    debug_assert!(scratch.len() >= n * nrhs);
    if n == 0 || nrhs == 0 {
        return;
    }
    let w = &mut scratch[..n * nrhs];
    for (k, wk) in w.chunks_exact_mut(nrhs).enumerate() {
        let r = row_of_step(k);
        for (c, x) in wk.iter_mut().enumerate() {
            *x = b[c * n + r];
        }
    }
    // w(k+1..n, :) -= L(k+1..n, k) * w(k, :)
    for k in 0..n - 1 {
        let col = &lu[k * n..k * n + n];
        let (head, tail) = w.split_at_mut((k + 1) * nrhs);
        let wk = &head[k * nrhs..];
        for (wi, &l) in tail.chunks_exact_mut(nrhs).zip(&col[k + 1..]) {
            let l = -l;
            for (x, &y) in wi.iter_mut().zip(wk) {
                *x = l.mul_add(y, *x);
            }
        }
    }
    // w(k, :) /= U(k, k); w(0..k, :) -= U(0..k, k) * w(k, :)
    for k in (0..n).rev() {
        let col = &lu[k * n..k * n + n];
        let (head, tail) = w.split_at_mut(k * nrhs);
        let wk = &mut tail[..nrhs];
        let d = col[k];
        for x in wk.iter_mut() {
            *x /= d;
        }
        for (wi, &u) in head.chunks_exact_mut(nrhs).zip(&col[..k]) {
            let u = -u;
            for (x, &y) in wi.iter_mut().zip(wk.iter()) {
                *x = u.mul_add(y, *x);
            }
        }
    }
    for (i, wi) in w.chunks_exact(nrhs).enumerate() {
        for (c, &x) in wi.iter().enumerate() {
            b[c * n + i] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMat;

    #[test]
    fn multi_rhs_solve_is_bitwise_the_column_solves() {
        use vbatch_rt::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x3175);
        for n in 1..=33usize {
            for nrhs in [1usize, 2, 7, 33, 70] {
                let mut lu: Vec<f64> = (0..n * n).map(|_| rng.gen_f64() * 2.0 - 1.0).collect();
                for k in 0..n {
                    lu[k * n + k] += 2.0;
                }
                let mut perm: Vec<usize> = (0..n).collect();
                for k in (1..n).rev() {
                    perm.swap(k, rng.gen_range(0..k + 1));
                }
                let mut b: Vec<f64> = (0..n * nrhs).map(|_| rng.gen_f64() - 0.5).collect();
                let mut expect = b.clone();
                let mut scratch = vec![0.0; n * nrhs];
                for col in expect.chunks_exact_mut(n) {
                    lu_solve_inplace_scratch(TrsvVariant::Eager, n, &lu, &perm, col, &mut scratch);
                }
                lu_solve_multi_inplace_scratch(n, nrhs, &lu, |k| perm[k], &mut b, &mut scratch);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&b), bits(&expect), "n={n} nrhs={nrhs}");
            }
        }
    }

    /// Column-major data for a 3x3 combined LU with L strictly lower.
    fn sample_lu() -> (usize, Vec<f64>) {
        // L = [1 0 0; 0.5 1 0; -0.25 2 1], U = [4 2 -1; 0 3 5; 0 0 2]
        let lu = DenseMat::from_row_major(
            3,
            3,
            &[
                4.0, 2.0, -1.0, //
                0.5, 3.0, 5.0, //
                -0.25, 2.0, 2.0,
            ],
        );
        (3, lu.as_slice().to_vec())
    }

    #[test]
    fn lower_unit_lazy_eager_agree() {
        let (n, a) = sample_lu();
        let b0 = vec![1.0, 2.0, 3.0];
        let mut b_lazy = b0.clone();
        let mut b_eager = b0.clone();
        trsv_lower_unit(TrsvVariant::Lazy, n, &a, &mut b_lazy);
        trsv_lower_unit(TrsvVariant::Eager, n, &a, &mut b_eager);
        for i in 0..n {
            assert!((b_lazy[i] - b_eager[i]).abs() < 1e-14);
        }
        // verify against L y = b directly
        let l = DenseMat::from_col_major(3, 3, &a).unit_lower();
        let ly = l.matvec(&b_lazy);
        for i in 0..n {
            assert!((ly[i] - b0[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn upper_lazy_eager_agree() {
        let (n, a) = sample_lu();
        let b0 = vec![3.0, -1.0, 4.0];
        let mut b_lazy = b0.clone();
        let mut b_eager = b0.clone();
        trsv_upper(TrsvVariant::Lazy, n, &a, &mut b_lazy);
        trsv_upper(TrsvVariant::Eager, n, &a, &mut b_eager);
        for i in 0..n {
            assert!((b_lazy[i] - b_eager[i]).abs() < 1e-14);
        }
        let u = DenseMat::from_col_major(3, 3, &a).upper();
        let ux = u.matvec(&b_lazy);
        for i in 0..n {
            assert!((ux[i] - b0[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn size_one_system() {
        let a = vec![5.0f64];
        let mut b = vec![10.0];
        trsv_lower_unit(TrsvVariant::Eager, 1, &a, &mut b);
        assert_eq!(b[0], 10.0); // unit diagonal: nothing to do
        trsv_upper(TrsvVariant::Eager, 1, &a, &mut b);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn empty_system_is_noop() {
        let a: Vec<f64> = vec![];
        let mut b: Vec<f64> = vec![];
        trsv_lower_unit(TrsvVariant::Lazy, 0, &a, &mut b);
        trsv_upper(TrsvVariant::Eager, 0, &a, &mut b);
    }

    #[test]
    fn full_solve_with_permutation() {
        // A = P^T L U with P = [row1, row0, row2]
        let (n, lu) = sample_lu();
        let perm = vec![1usize, 0, 2];
        // Build A explicitly: PA = LU => A[perm[k], :] = (LU)[k, :]
        let lum = DenseMat::from_col_major(3, 3, &lu);
        let prod = lum.unit_lower().matmul(&lum.upper());
        let mut a = DenseMat::zeros(3, 3);
        for k in 0..3 {
            for j in 0..3 {
                a[(perm[k], j)] = prod[(k, j)];
            }
        }
        let x_true = vec![1.0, -2.0, 0.5];
        let mut b = a.matvec(&x_true);
        lu_solve_inplace(TrsvVariant::Eager, n, &lu, &perm, &mut b);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-12, "x[{i}] = {}", b[i]);
        }
    }

    #[test]
    fn f32_precision_path() {
        let lu = DenseMat::<f32>::from_row_major(2, 2, &[2.0, 1.0, 0.5, 3.0]);
        let a = lu.unit_lower().matmul(&lu.upper());
        let x_true = vec![2.0f32, -1.0];
        let mut b = a.matvec(&x_true);
        lu_solve_inplace(TrsvVariant::Eager, 2, lu.as_slice(), &[0, 1], &mut b);
        for i in 0..2 {
            assert!((b[i] - x_true[i]).abs() < 1e-5);
        }
    }
}
