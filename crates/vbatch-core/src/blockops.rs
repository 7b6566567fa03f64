//! In-place dense block operations: the block-ILU(0) sweep's level-3
//! pieces and the per-block GEMV of the inversion-based apply.
//!
//! The sweep works on variable-size column-major blocks in place:
//! `A_ik := A_ik · A_kk^{-1}` (a TRSM against the combined `L\U`
//! factors of the finished diagonal block, column by column) and `A_ij := A_ij − A_ik · A_kj` (a negated
//! GEMM accumulation). The triangular apply additionally needs the
//! negated GEMV accumulation `y := y − A x`, and an explicitly inverted
//! block is applied as `y := A x`. All kernels are allocation-free;
//! scratch, where needed, is caller-provided.

use crate::scalar::Scalar;

/// `C := C − A · B` with `A` (`m×k`), `B` (`k×n`) and `C` (`m×n`) all
/// column-major. Allocation-free.
pub fn gemm_neg_acc<T: Scalar>(m: usize, k: usize, n: usize, a: &[T], b: &[T], c: &mut [T]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for j in 0..n {
        let cj = &mut c[j * m..j * m + m];
        for l in 0..k {
            let blj = b[j * k + l];
            if blj == T::ZERO {
                continue;
            }
            let al = &a[l * m..l * m + m];
            for i in 0..m {
                cj[i] = (-al[i]).mul_add(blj, cj[i]);
            }
        }
    }
}

/// `y := y − A · x` with `A` (`m×n`) column-major. The AXPY-per-column
/// form matches the eager triangular sweeps: one coalesced column read
/// per step. Allocation-free.
pub fn gemv_neg_acc<T: Scalar>(m: usize, n: usize, a: &[T], x: &[T], y: &mut [T]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    for (j, &xj) in x.iter().enumerate() {
        let col = &a[j * m..j * m + m];
        for i in 0..m {
            y[i] = (-col[i]).mul_add(xj, y[i]);
        }
    }
}

/// `y := A · x` with `A` (`n×n`) column-major — the GEMV-shaped apply
/// of an explicitly inverted block (the inversion-based block-Jacobi of
/// ref.\[4\]). Columns of zero `x` entries are skipped.
/// Allocation-free.
pub fn gemv<T: Scalar>(n: usize, a: &[T], x: &[T], y: &mut [T]) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), n);
    y.fill(T::ZERO);
    for (j, &xj) in x.iter().enumerate() {
        if xj == T::ZERO {
            continue;
        }
        let col = &a[j * n..j * n + n];
        for (o, &aij) in y.iter_mut().zip(col) {
            *o = aij.mul_add(xj, *o);
        }
    }
}

/// `B := B · A^{-1}` with `B` (`m×n`) column-major and `A` (`n×n`)
/// given by its combined `L\U` factors: the right-division of the
/// block-ILU(0) sweep, `A_ik := A_ik · A_kk^{-1}`.
///
/// With `P A = L U` the result is `B · U^{-1} · L^{-1} · P`, computed
/// on whole unit-stride columns of `B`: a forward sweep with `U`
/// (column `k` takes an AXPY from every finished column `j < k`, then
/// is scaled by `1 / u_kk`), a backward sweep with the unit `L`
/// (column `k` takes an AXPY from every column `i > k`), and a column
/// scatter through the pivots (column `k` lands at `row_of_step[k]`).
/// Every element sees exactly the fma sequence of solving its row
/// against `A^T` (the row-by-row reference in this module's tests), so
/// the result is bitwise that of the row-by-row solve while every inner
/// loop runs over the `m` contiguous rows of a column.
/// `scratch.len() >= m * n` (the scatter target); no heap allocation.
pub fn trsm_right_lu_inplace<T: Scalar>(
    m: usize,
    n: usize,
    lu: &[T],
    row_of_step: &[usize],
    bmat: &mut [T],
    scratch: &mut [T],
) {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(row_of_step.len(), n);
    debug_assert_eq!(bmat.len(), m * n);
    debug_assert!(scratch.len() >= m * n);
    if m == 0 {
        return;
    }
    // forward: Z U = B
    for k in 0..n {
        let col = &lu[k * n..k * n + n];
        let (done, rest) = bmat.split_at_mut(k * m);
        let bk = &mut rest[..m];
        for (j, bj) in done.chunks_exact(m).enumerate() {
            let u = -col[j];
            for (x, &y) in bk.iter_mut().zip(bj) {
                *x = u.mul_add(y, *x);
            }
        }
        let d = col[k];
        for x in bk.iter_mut() {
            *x /= d;
        }
    }
    // backward: Y L = Z (unit diagonal)
    for k in (0..n).rev() {
        let col = &lu[k * n..k * n + n];
        let (head, tail) = bmat.split_at_mut((k + 1) * m);
        let bk = &mut head[k * m..];
        for (bi, &l) in tail.chunks_exact(m).zip(&col[k + 1..]) {
            let l = -l;
            for (x, &y) in bk.iter_mut().zip(bi) {
                *x = l.mul_add(y, *x);
            }
        }
    }
    // X = Y P: column k lands at row_of_step[k]
    let out = &mut scratch[..m * n];
    for (yk, &r) in bmat.chunks_exact(m).zip(row_of_step) {
        out[r * m..r * m + m].copy_from_slice(yk);
    }
    bmat.copy_from_slice(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMat;
    use crate::lu::implicit::getrf_implicit_inplace;
    use vbatch_rt::SmallRng;

    /// Solve `A^T x = b` in place given the combined `L\U` factors of `A`
    /// with `P A = L U` (`row_of_step` in the pivot convention of
    /// `crate::perm::Permutation`): the row-by-row reference of
    /// [`trsm_right_lu_inplace`].
    ///
    /// `A^T = U^T L^T P`, so the solve runs a forward sweep with `U^T`
    /// (lower triangular, diagonal of `U`), a backward sweep with `L^T`
    /// (unit upper triangular), and finally scatters through the
    /// permutation: `x[row_of_step[k]] = y[k]`. The scatter lands in
    /// `scratch` (`scratch.len() >= n`); no heap allocation.
    fn lu_solve_transposed_inplace_scratch<T: Scalar>(
        n: usize,
        lu: &[T],
        row_of_step: &[usize],
        b: &mut [T],
        scratch: &mut [T],
    ) {
        debug_assert_eq!(lu.len(), n * n);
        debug_assert_eq!(row_of_step.len(), n);
        debug_assert_eq!(b.len(), n);
        debug_assert!(scratch.len() >= n);
        // forward: U^T z = b, row k of U^T is column k of U
        for k in 0..n {
            let col = &lu[k * n..k * n + n];
            let mut acc = b[k];
            for j in 0..k {
                acc = (-col[j]).mul_add(b[j], acc);
            }
            b[k] = acc / col[k];
        }
        // backward: L^T y = z, row k of L^T is column k of L (unit diagonal)
        for k in (0..n).rev() {
            let col = &lu[k * n..k * n + n];
            let mut acc = b[k];
            for i in k + 1..n {
                acc = (-col[i]).mul_add(b[i], acc);
            }
            b[k] = acc;
        }
        // x = P^T y: x[row_of_step[k]] = y[k]
        let out = &mut scratch[..n];
        for (k, &r) in row_of_step.iter().enumerate() {
            out[r] = b[k];
        }
        b.copy_from_slice(out);
    }

    /// The row-wise right-division the column-oriented kernel replaced,
    /// kept as its bitwise oracle: gather row `i` of `B` (stride `m`),
    /// solve it against `A^T`, scatter it back.
    fn trsm_right_lu_rowwise<T: Scalar>(
        m: usize,
        n: usize,
        lu: &[T],
        row_of_step: &[usize],
        bmat: &mut [T],
    ) {
        let mut row = vec![T::ZERO; n];
        let mut scratch = vec![T::ZERO; n];
        for i in 0..m {
            for (j, r) in row.iter_mut().enumerate() {
                *r = bmat[j * m + i];
            }
            lu_solve_transposed_inplace_scratch(n, lu, row_of_step, &mut row, &mut scratch);
            for (j, r) in row.iter().enumerate() {
                bmat[j * m + i] = *r;
            }
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN: Rust
    /// leaves the sign and payload of a computed NaN unspecified, and
    /// the two kernels compile to different instruction forms.
    fn same_bits<T: Scalar>(x: T, y: T) -> bool {
        let (x, y) = (x.to_f64(), y.to_f64());
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn trsm_matches_rowwise_oracle<T: Scalar>() {
        let mut rng = SmallRng::seed_from_u64(0x7125);
        let unit = |rng: &mut SmallRng| T::from_f64(rng.gen_f64() * 2.0 - 1.0);
        for m in 1..=33usize {
            for n in 1..=33usize {
                // random factors (boosted diagonal) and a random pivot
                // sequence: the kernel never looks at where they came from
                let mut lu: Vec<T> = (0..n * n).map(|_| unit(&mut rng)).collect();
                for k in 0..n {
                    lu[k * n + k] += T::from_f64(if rng.gen_bool(0.5) { 2.0 } else { -2.0 });
                }
                let mut perm: Vec<usize> = (0..n).collect();
                for k in (1..n).rev() {
                    perm.swap(k, rng.gen_range(0..k + 1));
                }
                let mut b: Vec<T> = (0..m * n).map(|_| unit(&mut rng)).collect();
                // zeros in both operands, and one NaN in B every few cases
                for _ in 0..(m * n) / 5 {
                    b[rng.gen_range(0..m * n)] = T::ZERO;
                }
                if n > 1 {
                    let (i, j) = (rng.gen_range(1..n), rng.gen_range(0..n));
                    if i != j {
                        lu[j * n + i] = T::ZERO;
                    }
                }
                if (m + n) % 4 == 0 {
                    b[rng.gen_range(0..m * n)] = T::from_f64(f64::NAN);
                }
                let mut expect = b.clone();
                trsm_right_lu_rowwise(m, n, &lu, &perm, &mut expect);
                let mut scratch = vec![T::ZERO; m * n];
                trsm_right_lu_inplace(m, n, &lu, &perm, &mut b, &mut scratch);
                for (e, (&x, &y)) in b.iter().zip(&expect).enumerate() {
                    assert!(same_bits(x, y), "m={m} n={n} element {e}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn trsm_right_is_bitwise_the_rowwise_solve_f64() {
        trsm_matches_rowwise_oracle::<f64>();
    }

    #[test]
    fn trsm_right_is_bitwise_the_rowwise_solve_f32() {
        trsm_matches_rowwise_oracle::<f32>();
    }

    #[test]
    fn gemm_neg_acc_matches_dense() {
        let a = DenseMat::from_row_major(2, 3, &[1.0, 2.0, -1.0, 0.5, -2.0, 3.0]);
        let b = DenseMat::from_row_major(3, 2, &[2.0, 1.0, 0.0, -1.0, 1.5, 4.0]);
        let c0 = DenseMat::from_row_major(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let mut c = c0.as_slice().to_vec();
        gemm_neg_acc(2, 3, 2, a.as_slice(), b.as_slice(), &mut c);
        let prod = a.matmul(&b);
        for j in 0..2 {
            for i in 0..2 {
                let expect = c0[(i, j)] - prod[(i, j)];
                assert!((c[j * 2 + i] - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn gemv_neg_acc_matches_dense() {
        let a = DenseMat::from_row_major(3, 2, &[1.0, -2.0, 0.5, 4.0, -1.0, 2.0]);
        let x = vec![2.0, -1.0];
        let mut y = vec![1.0, 1.0, 1.0];
        gemv_neg_acc(3, 2, a.as_slice(), &x, &mut y);
        let ax = a.matvec(&x);
        for i in 0..3 {
            assert!((y[i] - (1.0 - ax[i])).abs() < 1e-13);
        }
    }

    #[test]
    fn transposed_solve_inverts_a_transpose() {
        let a = DenseMat::from_row_major(3, 3, &[4.0, 1.0, -2.0, 2.0, 5.0, 1.0, -1.0, 2.0, 6.0]);
        let mut lu = a.as_slice().to_vec();
        let perm = getrf_implicit_inplace(3, &mut lu).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        // b = A^T x
        let at = a.transpose();
        let mut b = at.matvec(&x_true);
        let mut scratch = vec![0.0; 3];
        lu_solve_transposed_inplace_scratch(3, &lu, perm.as_slice(), &mut b, &mut scratch);
        for i in 0..3 {
            assert!((b[i] - x_true[i]).abs() < 1e-12, "x[{i}] = {}", b[i]);
        }
    }

    #[test]
    fn trsm_right_matches_per_row_solves() {
        let a = DenseMat::from_row_major(3, 3, &[5.0, 1.0, 0.0, -1.0, 4.0, 2.0, 0.5, -1.0, 6.0]);
        let mut lu = a.as_slice().to_vec();
        let perm = getrf_implicit_inplace(3, &mut lu).unwrap();
        // B: 2x3
        let b = DenseMat::from_row_major(2, 3, &[1.0, 2.0, 3.0, -1.0, 0.5, 2.0]);
        let mut bdata = b.as_slice().to_vec();
        let mut scratch = vec![0.0; 2 * 3];
        trsm_right_lu_inplace(2, 3, &lu, perm.as_slice(), &mut bdata, &mut scratch);
        // check B_new * A == B elementwise
        let bnew = DenseMat::from_col_major(2, 3, &bdata);
        let back = bnew.matmul(&a);
        for i in 0..2 {
            for j in 0..3 {
                assert!((back[(i, j)] - b[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_right_identity_factors_are_noop_rows() {
        // A = I: right-division must leave B unchanged
        let lu = DenseMat::<f64>::identity(4).as_slice().to_vec();
        let perm = [0usize, 1, 2, 3];
        let mut b: Vec<f64> = (0..12).map(|i| i as f64 - 5.0).collect();
        let orig = b.clone();
        let mut scratch = vec![0.0; 3 * 4];
        trsm_right_lu_inplace(3, 4, &lu, &perm, &mut b, &mut scratch);
        assert_eq!(b, orig);
    }
}
