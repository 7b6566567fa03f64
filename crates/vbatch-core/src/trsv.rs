//! Triangular solves for combined LU storage (paper §III-B, Fig. 2).
//!
//! The paper weighs two variants of each triangular sweep: the *lazy*
//! one finishes `y_k` with a DOT product against the computed prefix
//! (one factor *row* per step), the *eager* one retires `y_k` and
//! updates the trailing vector with an AXPY (one factor *column* per
//! step). It selects the eager variant because the AXPY needs no warp
//! reduction and its column read is coalesced; the warp cost of both is
//! modelled in `vbatch-simt`'s `kernels::trsv`. The host runs the eager
//! variant only.
//!
//! Every solve reads a *combined* LU factor — the unit lower factor in
//! the strict lower triangle (unit diagonal implied), the upper factor
//! on and above the diagonal — through one [`LuView`], whether the
//! factor is a block's own column-major storage or one slot of an
//! interleaved class ([`crate::interleaved`]). The permuted eager solve
//! is written once on the view and instantiated for the unit stride
//! (contiguous column slices) and for the class stride; per element
//! both run the same operations on the same operands, so the layouts
//! agree bitwise.

use crate::scalar::Scalar;
use crate::widen::Stored;

/// One combined `L\U` factor wherever it lives, read in place:
/// column-major element `e` sits at `data[e * stride + offset]` and the
/// pivot row of step `k` at `piv[k * stride + offset]` — `stride = 1`
/// for a block's own storage ([`LuView::new`]), the class population
/// with `offset` the slot for an interleaved class ([`LuView::slot`]).
/// The storage scalar `S` may be narrower than the working scalar `T`
/// of a solve (see [`crate::widen`]); arithmetic is always in `T`.
#[derive(Clone, Copy, Debug)]
pub struct LuView<'a, S> {
    n: usize,
    data: &'a [S],
    piv: &'a [usize],
    stride: usize,
    offset: usize,
}

impl<'a, S: Scalar> LuView<'a, S> {
    /// A block's own column-major factor `lu` and its row-of-step pivot
    /// sequence (`row_of_step[k]` is the original row chosen at step
    /// `k`, see [`crate::perm::Permutation`]).
    pub fn new(lu: &'a [S], row_of_step: &'a [usize]) -> Self {
        let n = row_of_step.len();
        debug_assert_eq!(lu.len(), n * n);
        LuView {
            n,
            data: lu,
            piv: row_of_step,
            stride: 1,
            offset: 0,
        }
    }

    /// Slot `slot` of a factorized interleaved class of `count` systems
    /// of order `n`: `data[(j*n + i) * count + slot]`,
    /// `piv[k * count + slot]`.
    pub fn slot(n: usize, count: usize, slot: usize, data: &'a [S], piv: &'a [usize]) -> Self {
        debug_assert!(slot < count);
        debug_assert_eq!(data.len(), n * n * count);
        debug_assert_eq!(piv.len(), n * count);
        LuView {
            n,
            data,
            piv,
            stride: count,
            offset: slot,
        }
    }

    /// Order of the factored block.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Element `(i, j)` of the combined factor.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> S {
        self.data[(j * self.n + i) * self.stride + self.offset]
    }

    /// Original row chosen as pivot of step `k`.
    #[inline]
    pub fn row_of_step(&self, k: usize) -> usize {
        self.piv[k * self.stride + self.offset]
    }

    /// The whole row-of-step pivot sequence.
    pub fn pivots(&self) -> Vec<usize> {
        (0..self.n).map(|k| self.row_of_step(k)).collect()
    }

    /// `true` for a contiguous factor, which the solves read through
    /// their `UNIT` instantiation.
    #[inline]
    pub(crate) fn is_unit(&self) -> bool {
        self.stride == 1
    }

    /// `(stride, offset)`; the constants `(1, 0)` when `UNIT`.
    #[inline(always)]
    pub(crate) fn layout<const UNIT: bool>(&self) -> (usize, usize) {
        if UNIT {
            debug_assert!(self.is_unit());
            (1, 0)
        } else {
            (self.stride, self.offset)
        }
    }

    /// Column `k` of the factor: element `(i, k)` is `col[i * stride]`
    /// (for `UNIT`, the slice `data[k*n..k*n + n]`).
    #[inline(always)]
    pub(crate) fn column<const UNIT: bool>(&self, k: usize) -> &'a [S] {
        let (stride, offset) = self.layout::<UNIT>();
        let start = k * self.n * stride + offset;
        &self.data[start..start + (self.n - 1) * stride + 1]
    }

    /// Eager unit-lower sweep: `b(k+1..n) -= L(k+1..n, k) * b(k)`.
    #[inline(always)]
    fn lower_sweep<T: Scalar, const UNIT: bool>(&self, b: &mut [T])
    where
        S: Stored<T>,
    {
        let (n, (stride, _)) = (self.n, self.layout::<UNIT>());
        for k in 0..n.saturating_sub(1) {
            let bk = b[k];
            let col = self.column::<UNIT>(k);
            for i in k + 1..n {
                b[i] = (-col[i * stride].widen()).mul_add(bk, b[i]);
            }
        }
    }

    /// Eager upper sweep: `b(k) /= U(k, k); b(0..k) -= U(0..k, k) * b(k)`.
    #[inline(always)]
    fn upper_sweep<T: Scalar, const UNIT: bool>(&self, b: &mut [T])
    where
        S: Stored<T>,
    {
        let (n, (stride, _)) = (self.n, self.layout::<UNIT>());
        for k in (0..n).rev() {
            let col = self.column::<UNIT>(k);
            let bk = b[k] / col[k * stride].widen();
            b[k] = bk;
            for i in 0..k {
                b[i] = (-col[i * stride].widen()).mul_add(bk, b[i]);
            }
        }
    }

    /// The permuted eager `getrs` body: `b := P b` out of place into
    /// `scratch` (like the register gather on the GPU), then the two
    /// sweeps.
    #[inline(always)]
    pub(crate) fn solve_eager<T: Scalar, const UNIT: bool>(&self, b: &mut [T], scratch: &mut [T])
    where
        S: Stored<T>,
    {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        let (stride, offset) = self.layout::<UNIT>();
        let permuted = &mut scratch[..n];
        for (k, p) in permuted.iter_mut().enumerate() {
            *p = b[self.piv[k * stride + offset]];
        }
        b.copy_from_slice(permuted);
        self.lower_sweep::<T, UNIT>(b);
        self.upper_sweep::<T, UNIT>(b);
    }

    /// Solve `A x = b` in place (working scalar `T`) with the permuted
    /// eager `getrs`; `scratch.len() >= n` holds the permutation gather,
    /// no heap allocation.
    #[inline]
    pub fn solve_inplace<T: Scalar>(&self, b: &mut [T], scratch: &mut [T])
    where
        S: Stored<T>,
    {
        if self.is_unit() {
            self.solve_eager::<T, true>(b, scratch)
        } else {
            self.solve_eager::<T, false>(b, scratch)
        }
    }

    /// [`LuView::solve_inplace`] on every column of the column-major
    /// `n × nrhs` matrix `rhs`, reading each factor entry once for all
    /// columns.
    ///
    /// The permuted right-hand sides are gathered *transposed* into
    /// `scratch` (`scratch[k * nrhs + c] = rhs[c * n + row_of_step(k)]`),
    /// so each step of the two eager sweeps reads one factor entry and
    /// updates a whole unit-stride row of `nrhs` values. Every element
    /// sees exactly the operation sequence of `solve_inplace` on its own
    /// column, so the results are bitwise identical to solving column by
    /// column. `scratch.len() >= n * nrhs`; no heap allocation.
    pub fn solve_multi_inplace<T: Scalar>(&self, nrhs: usize, rhs: &mut [T], scratch: &mut [T])
    where
        S: Stored<T>,
    {
        let (n, stride) = (self.n, self.stride);
        debug_assert_eq!(rhs.len(), n * nrhs);
        debug_assert!(scratch.len() >= n * nrhs);
        if n == 0 || nrhs == 0 {
            return;
        }
        let w = &mut scratch[..n * nrhs];
        for (k, wk) in w.chunks_exact_mut(nrhs).enumerate() {
            let r = self.row_of_step(k);
            for (c, x) in wk.iter_mut().enumerate() {
                *x = rhs[c * n + r];
            }
        }
        // w(k+1..n, :) -= L(k+1..n, k) * w(k, :)
        for k in 0..n - 1 {
            let col = self.column::<false>(k);
            let (head, tail) = w.split_at_mut((k + 1) * nrhs);
            let wk = &head[k * nrhs..];
            for (i, wi) in (k + 1..n).zip(tail.chunks_exact_mut(nrhs)) {
                let l = -col[i * stride].widen();
                for (x, &y) in wi.iter_mut().zip(wk) {
                    *x = l.mul_add(y, *x);
                }
            }
        }
        // w(k, :) /= U(k, k); w(0..k, :) -= U(0..k, k) * w(k, :)
        for k in (0..n).rev() {
            let col = self.column::<false>(k);
            let (head, tail) = w.split_at_mut(k * nrhs);
            let wk = &mut tail[..nrhs];
            let d = col[k * stride].widen();
            for x in wk.iter_mut() {
                *x /= d;
            }
            for (i, wi) in head.chunks_exact_mut(nrhs).enumerate() {
                let u = -col[i * stride].widen();
                for (x, &y) in wi.iter_mut().zip(wk.iter()) {
                    *x = u.mul_add(y, *x);
                }
            }
        }
        for (i, wi) in w.chunks_exact(nrhs).enumerate() {
            for (c, &x) in wi.iter().enumerate() {
                rhs[c * n + i] = x;
            }
        }
    }
}

/// A contiguous `n × n` factor without pivots, for the bare sweeps.
fn unpivoted<S>(n: usize, a: &[S]) -> LuView<'_, S> {
    debug_assert_eq!(a.len(), n * n);
    LuView {
        n,
        data: a,
        piv: &[],
        stride: 1,
        offset: 0,
    }
}

/// Solve `L y = b` in place (eager) with `L` unit lower triangular,
/// stored in the strict lower triangle of the column-major `n x n`
/// matrix `a`, which may be stored narrower than `b` (see
/// [`crate::widen`]).
#[inline]
pub fn trsv_lower_unit<T: Scalar, S: Stored<T>>(n: usize, a: &[S], b: &mut [T]) {
    debug_assert_eq!(b.len(), n);
    unpivoted(n, a).lower_sweep::<T, true>(b);
}

/// Solve `U x = b` in place (eager) with `U` upper triangular (diagonal
/// included) stored in the upper triangle of the column-major `n x n`
/// matrix `a`.
#[inline]
pub fn trsv_upper<T: Scalar, S: Stored<T>>(n: usize, a: &[S], b: &mut [T]) {
    debug_assert_eq!(b.len(), n);
    unpivoted(n, a).upper_sweep::<T, true>(b);
}

/// Full `getrs`-style solve of `A x = b` in place from the contiguous
/// combined factor `lu` and its row-of-step pivots: [`LuView::new`]'s
/// [`LuView::solve_inplace`] on a fresh scratch vector (callers that
/// solve block after block keep their scratch and call the view).
pub fn lu_solve_inplace<T: Scalar>(n: usize, lu: &[T], row_of_step: &[usize], b: &mut [T]) {
    debug_assert_eq!(row_of_step.len(), n);
    let mut scratch = vec![T::ZERO; n];
    LuView::new(lu, row_of_step).solve_inplace(b, &mut scratch);
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
                let view = LuView::new(&lu, &perm);
                for col in expect.chunks_exact_mut(n) {
                    view.solve_inplace(col, &mut scratch);
                }
                view.solve_multi_inplace(nrhs, &mut b, &mut scratch);
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
    fn lower_unit_sweep_solves_l() {
        let (n, a) = sample_lu();
        let b0 = vec![1.0, 2.0, 3.0];
        let mut y = b0.clone();
        trsv_lower_unit(n, &a, &mut y);
        let ly = DenseMat::from_col_major(3, 3, &a).unit_lower().matvec(&y);
        for i in 0..n {
            assert!((ly[i] - b0[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn upper_sweep_solves_u() {
        let (n, a) = sample_lu();
        let b0 = vec![3.0, -1.0, 4.0];
        let mut x = b0.clone();
        trsv_upper(n, &a, &mut x);
        let ux = DenseMat::from_col_major(3, 3, &a).upper().matvec(&x);
        for i in 0..n {
            assert!((ux[i] - b0[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn size_one_system() {
        let a = vec![5.0f64];
        let mut b = vec![10.0];
        trsv_lower_unit(1, &a, &mut b);
        assert_eq!(b[0], 10.0); // unit diagonal: nothing to do
        trsv_upper(1, &a, &mut b);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn empty_system_is_noop() {
        let a: Vec<f64> = vec![];
        let mut b: Vec<f64> = vec![];
        trsv_lower_unit(0, &a, &mut b);
        trsv_upper(0, &a, &mut b);
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
        lu_solve_inplace(n, &lu, &perm, &mut b);
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
        lu_solve_inplace(2, lu.as_slice(), &[0, 1], &mut b);
        for i in 0..2 {
            assert!((b[i] - x_true[i]).abs() < 1e-5);
        }
    }
}
