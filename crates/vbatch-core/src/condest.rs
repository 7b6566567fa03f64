//! Condition estimation and equilibration for small blocks.
//!
//! Block-Jacobi quality depends on how well-conditioned the diagonal
//! blocks are; these diagnostics let the preconditioner layer (and the
//! experiment harness) quantify that. The estimator is the classic
//! Hager/Higham 1-norm power iteration on `A^{-1}`, reusing an existing
//! LU factorization, so it costs only a handful of triangular solves.

use crate::dense::DenseMat;
use crate::lu::LuFactors;
use crate::scalar::Scalar;
use crate::trsv::LuView;

/// 1-norm of a matrix (max column sum).
pub fn norm1<T: Scalar>(a: &DenseMat<T>) -> T {
    let mut best = T::ZERO;
    for j in 0..a.cols() {
        let s = a.col(j).iter().fold(T::ZERO, |acc, &v| acc + v.abs());
        best = Scalar::max(best, s);
    }
    best
}

/// Estimate `||A^{-1}||_1` (Hager's method) from a combined `L\U`
/// factor read in place — a block's own storage or an interleaved class
/// slot — on the caller's `work` (`len >= 4 n`: the iterate, the forward
/// solve, the transposed solve and the solve's scratch), so a caller
/// estimating block after block allocates nothing per block.
pub fn inverse_norm1_est<T: Scalar>(lu: &LuView<'_, T>, work: &mut [T]) -> T {
    if lu.is_unit() {
        estimate::<T, true>(lu, work)
    } else {
        estimate::<T, false>(lu, work)
    }
}

#[inline(always)]
fn estimate<T: Scalar, const UNIT: bool>(lu: &LuView<'_, T>, work: &mut [T]) -> T {
    let n = lu.order();
    if n == 0 {
        return T::ZERO;
    }
    let (stride, _) = lu.layout::<UNIT>();
    let (x, rest) = work[..4 * n].split_at_mut(n);
    let (y, rest) = rest.split_at_mut(n);
    let (t, scratch) = rest.split_at_mut(n);
    let inv_n = T::ONE / T::from_f64(n as f64);
    x.fill(inv_n);
    let mut est = T::ZERO;
    for _ in 0..5 {
        // y = A^{-1} x
        y.copy_from_slice(x);
        lu.solve_eager::<T, UNIT>(y, scratch);
        let new_est = y.iter().fold(T::ZERO, |acc, &v| acc + v.abs());
        // xi = sign(y)
        for (ti, &v) in t.iter_mut().zip(y.iter()) {
            *ti = if v >= T::ZERO { T::ONE } else { -T::ONE };
        }
        // z = A^{-T} xi: the transposed solves reuse the factorization,
        // A^T = (P^T L U)^T, so U^T w = xi, L^T v = w, z = P^T v.
        // U^T is lower triangular with U's diagonal; row k of U^T and
        // of L^T is column k of the factor
        for k in 0..n {
            let col = lu.column::<UNIT>(k);
            let mut acc = t[k];
            for j in 0..k {
                acc -= col[j * stride] * t[j];
            }
            t[k] = acc / col[k * stride];
        }
        // L^T is unit upper triangular
        for k in (0..n).rev() {
            let col = lu.column::<UNIT>(k);
            let mut acc = t[k];
            for j in k + 1..n {
                acc -= col[j * stride] * t[j];
            }
            t[k] = acc;
        }
        // z = P^T v, into y (read above): position row_of_step(k)
        // receives v_k
        let z = &mut *y;
        for (k, &tk) in t.iter().enumerate() {
            z[lu.row_of_step(k)] = tk;
        }
        let (jmax, zmax) = z
            .iter()
            .enumerate()
            .fold((0usize, T::ZERO), |(bj, bv), (j, &v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
        let zx = z
            .iter()
            .zip(x.iter())
            .fold(T::ZERO, |acc, (&a, &b)| acc + a * b);
        if new_est <= est || zmax <= zx.abs() {
            est = Scalar::max(est, new_est);
            break;
        }
        est = new_est;
        x.fill(T::ZERO);
        x[jmax] = T::ONE;
    }
    est
}

/// Estimated 1-norm condition number `||A||_1 * ||A^{-1}||_1`.
pub fn condest1<T: Scalar>(a: &DenseMat<T>, f: &LuFactors<T>) -> T {
    let n = f.order();
    let mut work = vec![T::ZERO; 4 * n];
    norm1(a) * inverse_norm1_est(&LuView::new(f.lu.as_slice(), f.perm.as_slice()), &mut work)
}

/// Row/column equilibration scalings (LAPACK `geequ`-style): returns
/// `(r, c)` such that `diag(r) * A * diag(c)` has rows and columns with
/// max-magnitude close to one. Returns `None` if a row or column is
/// entirely zero.
pub fn equilibrate<T: Scalar>(a: &DenseMat<T>) -> Option<(Vec<T>, Vec<T>)> {
    let (m, n) = (a.rows(), a.cols());
    let mut r = vec![T::ZERO; m];
    for i in 0..m {
        let mut mx = T::ZERO;
        for j in 0..n {
            mx = Scalar::max(mx, a[(i, j)].abs());
        }
        if mx == T::ZERO {
            return None;
        }
        r[i] = T::ONE / mx;
    }
    let mut c = vec![T::ZERO; n];
    for j in 0..n {
        let mut mx = T::ZERO;
        for i in 0..m {
            mx = Scalar::max(mx, r[i] * a[(i, j)].abs());
        }
        if mx == T::ZERO {
            return None;
        }
        c[j] = T::ONE / mx;
    }
    Some((r, c))
}

/// Apply equilibration scalings: `diag(r) * A * diag(c)`.
pub fn apply_equilibration<T: Scalar>(a: &DenseMat<T>, r: &[T], c: &[T]) -> DenseMat<T> {
    DenseMat::from_fn(a.rows(), a.cols(), |i, j| r[i] * a[(i, j)] * c[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{getrf, PivotStrategy};

    #[test]
    fn norm1_is_max_column_sum() {
        let a = DenseMat::from_row_major(2, 2, &[1.0, -4.0, 2.0, 3.0]);
        assert_eq!(norm1(&a), 7.0);
    }

    #[test]
    fn condest_of_identity_is_one() {
        let a = DenseMat::<f64>::identity(6);
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let k = condest1(&a, &f);
        assert!((k - 1.0).abs() < 1e-12, "kappa = {k}");
    }

    #[test]
    fn condest_of_diagonal_matrix_is_exact() {
        // diag(1, 1e-3): kappa_1 = 1e3
        let mut a = DenseMat::<f64>::identity(2);
        a[(1, 1)] = 1e-3;
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let k = condest1(&a, &f).to_f64();
        assert!((k - 1e3).abs() / 1e3 < 1e-10, "kappa = {k}");
    }

    #[test]
    fn condest_detects_ill_conditioning() {
        // nearly dependent rows
        let eps = 1e-8;
        let a = DenseMat::from_row_major(2, 2, &[1.0, 1.0, 1.0, 1.0 + eps]);
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let k = condest1(&a, &f).to_f64();
        assert!(k > 1e7, "kappa = {k}");
    }

    #[test]
    fn transposed_solve_inside_estimator_is_consistent() {
        // condest must never be below 1 and must be a lower bound scale
        // of the true inverse norm; sanity-check on random-ish blocks
        for n in [2usize, 5, 9, 16] {
            let a = DenseMat::from_fn(n, n, |i, j| {
                ((i * 23 + j * 7 + 3) % 17) as f64 / 8.0 - 1.0 + if i == j { 2.5 } else { 0.0 }
            });
            let f = getrf(&a, PivotStrategy::Implicit).unwrap();
            let k = condest1(&a, &f).to_f64();
            assert!(k >= 1.0 - 1e-12, "n={n}: kappa {k}");
            // compare against the exact inverse norm
            let exact = norm1(&a).to_f64() * norm1(&f.inverse()).to_f64();
            assert!(
                k <= exact * 1.0001,
                "estimate {k} exceeds exact {exact} (n={n})"
            );
            assert!(
                k >= exact / 15.0,
                "estimate {k} far below exact {exact} (n={n})"
            );
        }
    }

    #[test]
    fn equilibration_normalizes_rows_and_cols() {
        let a = DenseMat::from_row_major(2, 2, &[1e6, 2e6, 3e-6, 1e-6]);
        let (r, c) = equilibrate(&a).unwrap();
        let e = apply_equilibration(&a, &r, &c);
        for i in 0..2 {
            let mx = (0..2).map(|j| e[(i, j)].abs()).fold(0.0, f64::max);
            assert!((0.1..=1.0 + 1e-12).contains(&mx), "row {i}: {mx}");
        }
        // equilibration dramatically improves the condition estimate
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let fe = getrf(&e, PivotStrategy::Implicit).unwrap();
        assert!(condest1(&e, &fe) < condest1(&a, &f));
    }

    #[test]
    fn zero_row_rejected() {
        let a = DenseMat::from_row_major(2, 2, &[0.0, 0.0, 1.0, 2.0]);
        assert!(equilibrate(&a).is_none());
    }

    #[test]
    fn zero_column_rejected() {
        // rows all have a nonzero entry, column 1 is entirely zero: the
        // second (column) pass of the geequ scan must return None
        let a = DenseMat::from_row_major(2, 2, &[1.0, 0.0, 2.0, 0.0]);
        assert!(equilibrate(&a).is_none());
    }

    /// The `n x n` Hilbert matrix `H[i][j] = 1 / (i + j + 1)`.
    fn hilbert(n: usize) -> DenseMat<f64> {
        DenseMat::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64)
    }

    #[test]
    fn condest_tracks_exact_hilbert_condition_numbers() {
        // Exact 1-norm condition numbers of the Hilbert matrices
        // (kappa_1(H_3) = 748 etc.); the explicit inverse computed from
        // the LU factors reproduces them to full precision at these
        // orders, and Hager's estimate must stay within [exact/10, exact].
        let known_h3 = 748.0;
        for n in [3usize, 4, 5, 6] {
            let a = hilbert(n);
            let f = getrf(&a, PivotStrategy::Implicit).unwrap();
            let exact = norm1(&a).to_f64() * norm1(&f.inverse()).to_f64();
            if n == 3 {
                assert!(
                    (exact - known_h3).abs() / known_h3 < 1e-9,
                    "exact kappa_1(H_3) = {exact}"
                );
            }
            let k = condest1(&a, &f).to_f64();
            assert!(k <= exact * 1.0001, "n={n}: estimate {k} > exact {exact}");
            assert!(k >= exact / 10.0, "n={n}: estimate {k} << exact {exact}");
        }
    }

    #[test]
    fn condest_exact_on_scaled_identity() {
        // diag(s): kappa_1 = max|s| / min|s| exactly, and the estimator
        // attains it (the power iteration finds the extremal column)
        let s = [2.0f64, 0.5, 8.0, 1.0];
        let a = DenseMat::from_fn(4, 4, |i, j| if i == j { s[i] } else { 0.0 });
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let k = condest1(&a, &f).to_f64();
        assert!((k - 16.0).abs() < 1e-12, "kappa = {k}");

        // pure scaled identity alpha*I: kappa_1 = 1 for any alpha
        for alpha in [1e-8f64, 1.0, 4096.0] {
            let a = DenseMat::from_fn(5, 5, |i, j| if i == j { alpha } else { 0.0 });
            let f = getrf(&a, PivotStrategy::Implicit).unwrap();
            let k = condest1(&a, &f).to_f64();
            assert!((k - 1.0).abs() < 1e-12, "alpha={alpha}: kappa = {k}");
        }
    }
}
