//! Batched Cholesky factorization for symmetric positive definite
//! blocks — the paper's announced *future work* (§V), implemented here
//! as an extension.
//!
//! For SPD diagonal blocks no pivoting is needed, the factorization
//! costs half of LU (`1/3 n^3` flops) and the preconditioner application
//! becomes `L L^T x = b` (two triangular sweeps with the same factor).

use crate::dense::DenseMat;
use crate::error::{check_finite, FactorError, FactorResult};
use crate::scalar::Scalar;

/// Lower Cholesky factor of one SPD block.
#[derive(Clone, Debug)]
pub struct CholeskyFactors<T: Scalar> {
    /// Lower-triangular factor `L` (upper triangle is zeroed).
    pub l: DenseMat<T>,
}

/// Factorize `a = L L^T` (right-looking, column-by-column).
pub fn potrf<T: Scalar>(a: &DenseMat<T>) -> FactorResult<CholeskyFactors<T>> {
    if !a.is_square() {
        return Err(FactorError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    check_finite(n, a.as_slice())?;
    let mut l = a.clone();
    for k in 0..n {
        let dkk = l[(k, k)];
        if !(dkk > T::ZERO) || !dkk.is_finite() {
            return Err(FactorError::NotPositiveDefinite { step: k });
        }
        let d = dkk.sqrt();
        l[(k, k)] = d;
        for i in k + 1..n {
            l[(i, k)] /= d;
        }
        for j in k + 1..n {
            let ljk = l[(j, k)];
            if ljk == T::ZERO {
                continue;
            }
            for i in j..n {
                let lik = l[(i, k)];
                l[(i, j)] = (-lik).mul_add(ljk, l[(i, j)]);
            }
        }
    }
    // zero the upper triangle so `l` is a clean factor
    for j in 1..n {
        for i in 0..j {
            l[(i, j)] = T::ZERO;
        }
    }
    Ok(CholeskyFactors { l })
}

impl<T: Scalar> CholeskyFactors<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` in place via `L y = b`, `L^T x = y` (eager
    /// sweeps).
    pub fn solve_inplace(&self, b: &mut [T]) {
        let n = self.order();
        debug_assert_eq!(b.len(), n);
        // forward sweep with non-unit lower factor
        for k in 0..n {
            let bk = b[k] / self.l[(k, k)];
            b[k] = bk;
            for i in k + 1..n {
                b[i] = (-self.l[(i, k)]).mul_add(bk, b[i]);
            }
        }
        // backward sweep with L^T: U = L^T so U(i,j) = L(j,i)
        for k in (0..n).rev() {
            let bk = b[k] / self.l[(k, k)];
            b[k] = bk;
            for i in 0..k {
                b[i] = (-self.l[(k, i)]).mul_add(bk, b[i]);
            }
        }
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.solve_inplace(&mut x);
        x
    }

    /// Residual `max |A - L L^T|`.
    pub fn residual(&self, a: &DenseMat<T>) -> T {
        let rec = self.l.matmul(&self.l.transpose());
        a.sub(&rec).norm_max()
    }
}

/// Generate an SPD matrix `B^T B + n I` from an arbitrary seed block
/// (test/bench helper used across the workspace).
pub fn make_spd<T: Scalar>(b: &DenseMat<T>) -> DenseMat<T> {
    assert!(b.is_square());
    let n = b.rows();
    let mut a = b.transpose().matmul(b);
    for i in 0..n {
        a[(i, i)] += T::from_f64(n as f64);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: usize) -> DenseMat<f64> {
        let b = DenseMat::from_fn(n, n, |i, j| {
            ((i * 193 + j * 71 + seed * 1543 + 7) % 512) as f64 / 256.0 - 1.0
        });
        make_spd(&b)
    }

    #[test]
    fn factorization_residual_small() {
        for n in [1usize, 2, 5, 12, 24, 32] {
            let a = spd(n, n);
            let f = potrf(&a).unwrap();
            let r = f.residual(&a).to_f64();
            assert!(r < 1e-10 * (n as f64 + 1.0), "n={n}: residual {r}");
        }
    }

    #[test]
    fn factor_is_lower_triangular() {
        let a = spd(6, 3);
        let f = potrf(&a).unwrap();
        for j in 1..6 {
            for i in 0..j {
                assert_eq!(f.l[(i, j)], 0.0);
            }
        }
        for k in 0..6 {
            assert!(f.l[(k, k)] > 0.0);
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd(10, 9);
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64 - 4.0) / 2.0).collect();
        let x = potrf(&a).unwrap().solve(&a.matvec(&x_true));
        for i in 0..10 {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]={}", x[i]);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = DenseMat::from_row_major(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert_eq!(potrf(&a), Err(FactorError::NotPositiveDefinite { step: 1 }));
    }

    #[test]
    fn negative_leading_entry_rejected() {
        let a = DenseMat::from_row_major(2, 2, &[-1.0, 0.0, 0.0, 1.0]);
        assert_eq!(potrf(&a), Err(FactorError::NotPositiveDefinite { step: 0 }));
    }

    #[test]
    fn matches_lu_solution() {
        use crate::lu::{getrf, PivotStrategy};
        let a = spd(14, 5);
        let b: Vec<f64> = (0..14).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let x_chol = potrf(&a).unwrap().solve(&b);
        let x_lu = getrf(&a, PivotStrategy::Implicit).unwrap().solve(&b);
        for i in 0..14 {
            assert!((x_chol[i] - x_lu[i]).abs() < 1e-9);
        }
    }

    impl PartialEq for CholeskyFactors<f64> {
        fn eq(&self, other: &Self) -> bool {
            self.l == other.l
        }
    }
}
