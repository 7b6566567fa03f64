//! LU factorization with partial pivoting for small dense blocks
//! (paper §II-B / §III-A).
//!
//! Two pivoting strategies are provided, mirroring Fig. 1 of the paper:
//!
//! * [`explicit`] — textbook right-looking LU: select the pivot in the
//!   current column, *swap the rows in memory*, then apply the Gauss
//!   transformation (Fig. 1 top). On a GPU the swap serializes two lanes
//!   while the rest idle, which is what motivates…
//! * [`implicit`] — the paper's implicit pivoting (Fig. 1 bottom): no row
//!   is ever moved during the elimination; each row remembers the step at
//!   which it was chosen as pivot, rows that are still unpivoted keep
//!   being updated in place, and the combined permutation is applied in
//!   one pass at the very end (on the GPU: folded into the off-load of
//!   `L`/`U` to memory).
//!
//! Both produce the same `P A = L U` decomposition (identical up to
//! pivot-tie ordering) stored in *combined* form: `L` strictly below the
//! diagonal (unit diagonal implied), `U` on and above it.

pub mod blocked;
pub mod explicit;
pub mod implicit;

use crate::dense::DenseMat;
use crate::error::{FactorError, FactorResult};
use crate::perm::Permutation;
use crate::scalar::Scalar;
use crate::trsv::lu_solve_inplace;

/// Pivoting strategy selector for the LU drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotStrategy {
    /// Row swaps performed in memory at every step (Fig. 1 top).
    Explicit,
    /// The paper's swap-free implicit pivoting (Fig. 1 bottom).
    Implicit,
    /// No pivoting at all. Fast but unstable; provided for the ablation
    /// benchmarks and for matrices known to be diagonally dominant.
    None,
}

impl PivotStrategy {
    /// All strategies, for exhaustive tests.
    pub const ALL: [PivotStrategy; 3] = [
        PivotStrategy::Explicit,
        PivotStrategy::Implicit,
        PivotStrategy::None,
    ];
}

/// The result of an LU factorization of one small block: the combined
/// `L`/`U` storage plus the row permutation (`row_of_step` form).
#[derive(Clone, Debug)]
pub struct LuFactors<T: Scalar> {
    /// Combined factors, column-major `n x n`.
    pub lu: DenseMat<T>,
    /// Row permutation: `perm.row_of_step(k)` is the original row used as
    /// the pivot of step `k` (so `b_permuted[k] = b[perm.row_of_step(k)]`).
    pub perm: Permutation,
}

impl<T: Scalar> LuFactors<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b`, overwriting `b` with `x` (the permuted eager
    /// solve of [`crate::trsv`]).
    pub fn solve_inplace(&self, b: &mut [T]) {
        lu_solve_inplace(self.order(), self.lu.as_slice(), self.perm.as_slice(), b);
    }

    /// Solve `A x = b` into a fresh vector.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.solve_inplace(&mut x);
        x
    }

    /// Determinant of `A`, computed as `det(P) * prod(diag(U))`.
    pub fn det(&self) -> T {
        let mut d = if self.perm.is_odd() { -T::ONE } else { T::ONE };
        for k in 0..self.order() {
            d *= self.lu[(k, k)];
        }
        d
    }

    /// Residual `max |P A - L U|` against the original matrix.
    pub fn residual(&self, a: &DenseMat<T>) -> T {
        crate::dense::lu_residual(a, &self.lu, self.perm.as_slice())
    }

    /// Explicitly reconstruct `A^{-1}` by solving against the identity
    /// columns (used by the inversion-based preconditioner comparisons).
    pub fn inverse(&self) -> DenseMat<T> {
        let n = self.order();
        let mut inv = DenseMat::zeros(n, n);
        let mut e = vec![T::ZERO; n];
        for j in 0..n {
            e.iter_mut().for_each(|v| *v = T::ZERO);
            e[j] = T::ONE;
            self.solve_inplace(&mut e);
            inv.col_mut(j).copy_from_slice(&e);
        }
        inv
    }
}

/// Factorize a square block with the chosen pivoting strategy.
pub fn getrf<T: Scalar>(a: &DenseMat<T>, strategy: PivotStrategy) -> FactorResult<LuFactors<T>> {
    if !a.is_square() {
        return Err(FactorError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let mut lu = a.clone();
    let perm = getrf_inplace(strategy, a.rows(), lu.as_mut_slice())?;
    Ok(LuFactors { lu, perm })
}

/// [`getrf`] on a caller-owned column-major `n x n` block: `data` is
/// overwritten with the combined factors.
pub fn getrf_inplace<T: Scalar>(
    strategy: PivotStrategy,
    n: usize,
    data: &mut [T],
) -> FactorResult<Permutation> {
    match strategy {
        PivotStrategy::Explicit => explicit::getrf_explicit_inplace(n, data),
        PivotStrategy::Implicit => implicit::getrf_implicit_inplace(n, data),
        PivotStrategy::None => explicit::getrf_nopivot_inplace(n, data),
    }
}

/// Convenience wrapper: factorize and solve a single system.
pub fn solve_system<T: Scalar>(a: &DenseMat<T>, b: &[T]) -> FactorResult<Vec<T>> {
    let f = getrf(a, PivotStrategy::Implicit)?;
    Ok(f.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wilkinson_like() -> DenseMat<f64> {
        // needs pivoting: leading entry is tiny
        DenseMat::from_row_major(
            3,
            3,
            &[
                1e-12, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 10.0,
            ],
        )
    }

    #[test]
    fn getrf_all_strategies_small_residual() {
        let a = wilkinson_like();
        for strat in [PivotStrategy::Explicit, PivotStrategy::Implicit] {
            let f = getrf(&a, strat).unwrap();
            assert!(
                f.residual(&a).to_f64() < 1e-12,
                "strategy {strat:?} residual too large"
            );
        }
    }

    #[test]
    fn nopivot_matches_on_dominant_matrix() {
        let a = DenseMat::from_row_major(3, 3, &[10., 1., 2., 1., 12., 3., 2., 3., 14.]);
        let f = getrf(&a, PivotStrategy::None).unwrap();
        assert!(f.perm.is_identity());
        assert!(f.residual(&a).to_f64() < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = wilkinson_like();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = solve_system(&a, &b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]={}", x[i]);
        }
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        // det = -2 (requires a swap with partial pivoting)
        let a = DenseMat::from_row_major(2, 2, &[0.0, 1.0, 2.0, 4.0]);
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        assert!((f.det() + 2.0).abs() < 1e-14);
        let f = getrf(&a, PivotStrategy::Explicit).unwrap();
        assert!((f.det() + 2.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = wilkinson_like();
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let inv = f.inverse();
        let prod = inv.matmul(&a);
        let id = DenseMat::identity(3);
        assert!(prod.sub(&id).norm_max() < 1e-9);
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMat::<f64>::zeros(2, 3);
        assert_eq!(
            getrf(&a, PivotStrategy::Implicit),
            Err(FactorError::NotSquare { rows: 2, cols: 3 })
        );
    }

    #[test]
    fn non_finite_input_detected_by_all_strategies() {
        let mut a = wilkinson_like();
        a[(1, 2)] = f64::NAN;
        for strat in PivotStrategy::ALL {
            assert_eq!(
                getrf(&a, strat),
                Err(FactorError::NonFinite { row: 1, col: 2 }),
                "{strat:?} should diagnose the NaN input"
            );
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = DenseMat::from_row_major(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        for strat in PivotStrategy::ALL {
            let r = getrf(&a, strat);
            assert!(
                matches!(r, Err(FactorError::SingularPivot { .. })),
                "{strat:?} should detect singularity"
            );
        }
    }

    impl PartialEq for LuFactors<f64> {
        fn eq(&self, other: &Self) -> bool {
            self.lu == other.lu && self.perm == other.perm
        }
    }
}
