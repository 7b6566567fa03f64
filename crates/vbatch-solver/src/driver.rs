//! The one block-preconditioned IDR(s) driver, generic over the
//! [`BlockPreconditioner`] trait: [`IdrSolver`] builds the
//! preconditioner (block-Jacobi, block-ILU(0) or SPIKE) on an explicit
//! `vbatch-exec` backend through its one options-driven constructor and
//! runs the paper's IDR(s) on it, as often as asked, reusing the
//! prepared apply and one [`KrylovWorkspace`]. This is the seam
//! experiments use to swap both the host backend and the
//! preconditioner without touching solver code;
//! [`IdrSolver::solve_robust`] adds the breakdown-recovery policy. The
//! setup statistics (time, kernel histogram, fallback blocks, backend)
//! are the preconditioner's own [`BlockPreconditioner::setup_report`].

use crate::control::true_residual_norm;
use crate::{gmres, idr_with_workspace, KrylovWorkspace, SolveParams, SolveResult};
use std::sync::Arc;
use vbatch_core::{FactorError, Scalar};
use vbatch_exec::Backend;
use vbatch_precond::{BlockPreconditioner, PrecondOptions};
use vbatch_sparse::{axpy, nrm2, BlockPartition, CsrMatrix};

/// IDR restarts [`IdrSolver::solve_robust`] attempts before falling
/// back (each restart solves the residual system `A e = b - A x` and
/// corrects `x`).
const MAX_RESTARTS: usize = 1;

/// Restart length of [`IdrSolver::solve_robust`]'s GMRES fallback.
const GMRES_RESTART: usize = 30;

/// A reusable solve handle, generic over the preconditioner: setup runs
/// once, then every [`IdrSolver::solve`] call reuses both the prepared
/// preconditioner apply and a persistent [`KrylovWorkspace`] — after
/// the first solve, subsequent solves allocate nothing in their
/// iteration loops. Results are bitwise identical to a one-shot
/// [`crate::idr()`] on the same preconditioner.
pub struct IdrSolver<T: Scalar, M: BlockPreconditioner<T>> {
    m: M,
    ws: KrylovWorkspace<T>,
    s: usize,
    params: SolveParams,
}

/// A solve plus what [`IdrSolver::solve_robust`] had to do to get it.
pub struct RobustSolve<T> {
    /// The (possibly restarted / fallen-back) solve outcome. Iteration
    /// counts, solve times and histories accumulate across all
    /// attempts.
    pub result: SolveResult<T>,
    /// IDR restarts actually performed.
    pub restarts: usize,
    /// `true` if the GMRES fallback ran.
    pub used_gmres: bool,
}

impl<T: Scalar, M: BlockPreconditioner<T>> IdrSolver<T, M> {
    /// Build the preconditioner on `backend` through its canonical
    /// options-driven constructor and pre-seed the Krylov workspace for
    /// IDR(s) solves of this dimension.
    pub fn setup_opts(
        a: &CsrMatrix<T>,
        s: usize,
        part: &BlockPartition,
        backend: Arc<dyn Backend<T>>,
        opts: PrecondOptions,
        params: &SolveParams,
    ) -> Result<Self, FactorError> {
        Ok(IdrSolver {
            m: M::setup_opts(a, part, backend, opts)?,
            ws: KrylovWorkspace::for_idr(a.nrows(), s),
            s,
            params: params.clone(),
        })
    }

    /// Solve `A x = b`, reusing the preconditioner and workspace. `a`
    /// must have the dimension the handle was set up for.
    pub fn solve(&mut self, a: &CsrMatrix<T>, b: &[T]) -> SolveResult<T> {
        idr_with_workspace(a, b, self.s, &self.m, &self.params, &mut self.ws)
    }

    /// [`IdrSolver::solve`] under the breakdown-recovery policy: on an
    /// abnormal stop ([`crate::StopReason::is_abnormal`]) restart IDR
    /// once on the residual system from the current iterate, and if it
    /// still cannot finish cleanly, hand the original system to
    /// GMRES(30) with the same preconditioner. A corrupted right-hand
    /// side (non-finite norm) is reported as
    /// [`crate::StopReason::NonFinite`] without burning iterations and
    /// is never restarted.
    pub fn solve_robust(&mut self, a: &CsrMatrix<T>, b: &[T]) -> RobustSolve<T> {
        let normb = nrm2(b).to_f64();
        let mut result = self.solve(a, b);
        let mut restarts = 0usize;

        while result.reason.is_abnormal() && restarts < MAX_RESTARTS {
            let mut r = vec![T::ZERO; b.len()];
            if !true_residual_norm(a, &result.x, b, &mut r).is_finite() {
                // the right-hand side (or iterate) is corrupted beyond
                // what a restart can repair
                break;
            }
            restarts += 1;
            let retry = self.solve(a, &r);
            let mut x = result.x.clone();
            axpy(T::ONE, &retry.x, &mut x);
            result = merge_attempts(a, b, normb, x, &result, retry);
        }

        let used_gmres = result.reason.is_abnormal();
        if used_gmres {
            let g = gmres(a, b, GMRES_RESTART, &self.m, &self.params);
            let x = g.x.clone();
            result = merge_attempts(a, b, normb, x, &result, g);
        }

        RobustSolve {
            result,
            restarts,
            used_gmres,
        }
    }

    /// The preconditioner owned by this handle — its
    /// [`BlockPreconditioner::setup_report`] and `label` describe the
    /// setup.
    pub fn precond(&self) -> &M {
        &self.m
    }

    /// The persistent Krylov workspace (e.g. for high-water inspection).
    pub fn workspace(&self) -> &KrylovWorkspace<T> {
        &self.ws
    }
}

/// Fold a retry/fallback attempt into the running result: the iterate
/// is `x`, counters, solve times and histories accumulate, the relative
/// residual is recomputed from `x`, and the stop reason is the latest
/// attempt's.
fn merge_attempts<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
    normb: f64,
    x: Vec<T>,
    prev: &SolveResult<T>,
    attempt: SolveResult<T>,
) -> SolveResult<T> {
    let final_relres = if normb == 0.0 {
        0.0
    } else {
        true_residual_norm(a, &x, b, &mut vec![T::ZERO; b.len()]) / normb
    };
    let mut history = prev.history.clone();
    history.extend_from_slice(&attempt.history);
    SolveResult {
        x,
        iterations: prev.iterations + attempt.iterations,
        final_relres,
        reason: attempt.reason,
        solve_time: prev.solve_time + attempt.solve_time,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{idr, StopReason};
    use vbatch_exec::CpuSequential;
    use vbatch_precond::{BjMethod, BlockIlu0, BlockJacobi, Preconditioner};
    use vbatch_sparse::gen::laplace::laplace_2d;

    fn backend() -> Arc<dyn Backend<f64>> {
        Arc::new(CpuSequential)
    }

    fn small_lu() -> PrecondOptions {
        PrecondOptions::default().with_method(BjMethod::SmallLu)
    }

    fn handle<M: BlockPreconditioner<f64>>(
        a: &CsrMatrix<f64>,
        part: &BlockPartition,
        opts: PrecondOptions,
    ) -> IdrSolver<f64, M> {
        IdrSolver::setup_opts(a, 4, part, backend(), opts, &SolveParams::default()).unwrap()
    }

    #[test]
    fn robust_solve_converges_without_intervention() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let mut h = handle::<BlockJacobi<f64>>(&a, &part, small_lu());
        let r = h.solve_robust(&a, &b);
        assert!(r.result.converged());
        assert_eq!(r.restarts, 0);
        assert!(!r.used_gmres);
        assert_eq!(r.result.x, h.solve(&a, &b).x);
    }

    #[test]
    fn reusable_solver_matches_one_shot_bitwise() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let m = BlockJacobi::setup_opts(&a, &part, backend(), small_lu()).unwrap();
        let one_shot = idr(&a, &b, 4, &m, &SolveParams::default());
        let mut h = handle::<BlockJacobi<f64>>(&a, &part, small_lu());
        let r1 = h.solve(&a, &b);
        let r2 = h.solve(&a, &b); // reuses recycled buffers
        assert!(r1.converged());
        assert_eq!(one_shot.x, r1.x);
        assert_eq!(r1.x, r2.x);
        assert_eq!(one_shot.iterations, r2.iterations);
        assert!(h.workspace().high_water() > 0);
        assert_eq!(h.precond().setup_report().backend_name, "cpu-seq");
        assert!(h.precond().label().starts_with("block-jacobi"));
        // the prepared apply ran once per IDR iteration in both solves
        let stats = h.precond().apply_stats();
        assert_eq!(stats.applies as usize, 2 * r1.iterations);
    }

    #[test]
    fn generic_reusable_handle_runs_block_ilu() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let mut bilu = handle::<BlockIlu0<f64>>(&a, &part, small_lu());
        assert!(bilu.precond().label().starts_with("block-ilu0"));
        let r1 = bilu.solve(&a, &b);
        let r2 = bilu.solve(&a, &b);
        assert!(r1.converged());
        assert_eq!(r1.x, r2.x);
        // BILU must not need more iterations than BJ on this SPD model
        let bj = handle::<BlockJacobi<f64>>(&a, &part, small_lu()).solve(&a, &b);
        assert!(r1.iterations <= bj.iterations);
    }

    #[test]
    fn mixed_precision_policy_converges_degraded_free() {
        use vbatch_core::StoragePrecision;
        use vbatch_exec::{BlockStatus, PrecisionPolicy};
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let lowered = |h: &IdrSolver<f64, BlockJacobi<f64>>| {
            let statuses = h.precond().statuses();
            let count = |f: fn(&BlockStatus) -> bool| statuses.iter().filter(|s| f(s)).count();
            (
                count(|s| s.precision == StoragePrecision::Lower),
                count(|s| s.promoted),
            )
        };
        let mut dp = handle::<BlockJacobi<f64>>(&a, &part, small_lu());
        let mut mixed = handle::<BlockJacobi<f64>>(
            &a,
            &part,
            small_lu().with_precision(PrecisionPolicy::MixedPromote),
        );
        let (dp_x, mixed_r) = (dp.solve(&a, &b).x, mixed.solve(&a, &b));
        assert!(mixed_r.converged());
        assert_eq!(
            mixed.precond().setup_report().fallback_blocks,
            0,
            "no block may degrade under mixed"
        );
        // well-conditioned Laplace diagonal blocks: all lowered, none promoted
        assert_eq!(lowered(&mixed), (16, 0));
        assert_eq!(lowered(&dp), (0, 0));
        // the converged iterates agree to solver tolerance
        let diff: f64 = dp_x
            .iter()
            .zip(&mixed_r.x)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = dp_x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            diff / norm < 1e-6,
            "mixed drifted: relative diff {:e}",
            diff / norm
        );
    }

    #[test]
    fn nan_rhs_reports_non_finite_not_max_iters() {
        let a = laplace_2d::<f64>(6, 6);
        let mut b = vec![1.0; 36];
        b[0] = f64::NAN;
        let part = BlockPartition::uniform(36, 4);
        let r = handle::<BlockJacobi<f64>>(&a, &part, small_lu()).solve_robust(&a, &b);
        assert_eq!(r.result.reason, StopReason::NonFinite);
        assert!(r.used_gmres, "policy exhausts the fallback chain");
        assert_eq!(r.restarts, 0, "a NaN RHS cannot be restarted");
    }
}
