//! Backend-parameterized preconditioned solve drivers, generic over the
//! [`BlockPreconditioner`] trait: build the preconditioner (block-Jacobi,
//! block-ILU(0) or SPIKE) on an explicit `vbatch-exec` backend through
//! its one options-driven constructor and run the paper's IDR(s) on it,
//! reporting the solve outcome together with the preconditioner setup
//! statistics (kernel histogram, flops, fallback blocks). This is the
//! seam experiments use to swap both the CPU backends / SIMT simulator
//! and the preconditioner without touching solver code: the one-shot
//! [`idr_precond`] (or [`idr_precond_kind`] on a runtime token), the
//! reusable [`IdrSolver`] handle, and the breakdown-recovering
//! [`idr_precond_robust`].

use crate::control::true_residual_norm;
use crate::{gmres, idr, idr_with_workspace, KrylovWorkspace, SolveParams, SolveResult};
use std::sync::Arc;
use std::time::Duration;
use vbatch_core::{FactorError, Scalar};
use vbatch_exec::{Backend, ExecStats};
use vbatch_precond::{BlockIlu0, BlockJacobi, BlockPreconditioner, PrecondKind, PrecondOptions};
use vbatch_sparse::{axpy, nrm2, BlockPartition, CsrMatrix};

/// A preconditioned solve plus the setup-phase execution statistics.
pub struct PrecondSolve<T> {
    /// The Krylov solve outcome.
    pub result: SolveResult<T>,
    /// Wall-clock time of preconditioner setup (extract + factorize).
    pub setup_time: Duration,
    /// Singular blocks degraded to a fallback during factorization.
    pub fallback_blocks: usize,
    /// Blocks stored in lowered (`T::Lower`) precision after setup —
    /// nonzero only under a storage-lowering [`vbatch_exec::PrecisionPolicy`].
    pub lowered_blocks: usize,
    /// Blocks the condest gate promoted back to native precision under
    /// [`vbatch_exec::PrecisionPolicy::MixedPromote`].
    pub promoted_blocks: usize,
    /// Execution statistics of the setup phase.
    pub setup_stats: ExecStats,
    /// Backend the preconditioner ran on.
    pub backend_name: &'static str,
    /// Label of the preconditioner that drove the solve
    /// (e.g. `block-jacobi(LU, max 12)`).
    pub precond_label: String,
}

/// Solve `A x = b` with IDR(s) preconditioned by any
/// [`BlockPreconditioner`] set up through its canonical options-driven
/// constructor on the given execution backend.
pub fn idr_precond<T: Scalar, M: BlockPreconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    part: &BlockPartition,
    backend: Arc<dyn Backend<T>>,
    opts: PrecondOptions,
    params: &SolveParams,
) -> Result<PrecondSolve<T>, FactorError> {
    let m = M::setup_opts(a, part, backend, opts)?;
    let result = idr(a, b, s, &m, params);
    Ok(finish_solve(result, &m))
}

/// Dispatch [`idr_precond`] on a runtime [`PrecondKind`] token — the
/// entry point behind the benchmark bins' `--precond {bj,bilu,spike}` flag.
#[allow(clippy::too_many_arguments)] // mirrors idr_precond + kind
pub fn idr_precond_kind<T: Scalar>(
    kind: PrecondKind,
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    part: &BlockPartition,
    backend: Arc<dyn Backend<T>>,
    opts: PrecondOptions,
    params: &SolveParams,
) -> Result<PrecondSolve<T>, FactorError> {
    match kind {
        PrecondKind::BlockJacobi => {
            idr_precond::<T, BlockJacobi<T>>(a, b, s, part, backend, opts, params)
        }
        PrecondKind::BlockIlu0 => {
            idr_precond::<T, BlockIlu0<T>>(a, b, s, part, backend, opts, params)
        }
        PrecondKind::Spike => {
            idr_precond::<T, crate::spike::SpikeSolver<T>>(a, b, s, part, backend, opts, params)
        }
    }
}

fn finish_solve<T: Scalar, M: BlockPreconditioner<T>>(
    result: SolveResult<T>,
    m: &M,
) -> PrecondSolve<T> {
    let report = m.setup_report();
    let lowered_blocks = report
        .stats
        .precision_histogram()
        .get("lower")
        .copied()
        .unwrap_or(0) as usize;
    let promoted_blocks = report.stats.promotions as usize;
    PrecondSolve {
        result,
        setup_time: report.setup_time,
        fallback_blocks: report.fallback_blocks,
        lowered_blocks,
        promoted_blocks,
        setup_stats: report.stats,
        backend_name: report.backend_name,
        precond_label: m.label(),
    }
}

/// A reusable solve handle, generic over the preconditioner: setup runs
/// once, then every [`IdrSolver::solve`] call reuses both the prepared
/// preconditioner apply and a persistent [`KrylovWorkspace`] — after
/// the first solve, subsequent solves allocate nothing in their
/// iteration loops. Results are bitwise identical to the one-shot
/// [`idr_precond`].
pub struct IdrSolver<T: Scalar, M: BlockPreconditioner<T>> {
    m: M,
    ws: KrylovWorkspace<T>,
    s: usize,
    params: SolveParams,
    backend_name: &'static str,
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
        let m = M::setup_opts(a, part, backend, opts)?;
        let backend_name = m.setup_report().backend_name;
        Ok(IdrSolver {
            m,
            ws: KrylovWorkspace::for_idr(a.nrows(), s),
            s,
            params: params.clone(),
            backend_name,
        })
    }

    /// Solve `A x = b`, reusing the preconditioner and workspace. `a`
    /// must have the dimension the handle was set up for.
    pub fn solve(&mut self, a: &CsrMatrix<T>, b: &[T]) -> SolveResult<T> {
        idr_with_workspace(a, b, self.s, &self.m, &self.params, &mut self.ws)
    }

    /// The preconditioner owned by this handle.
    pub fn precond(&self) -> &M {
        &self.m
    }

    /// The persistent Krylov workspace (e.g. for high-water inspection).
    pub fn workspace(&self) -> &KrylovWorkspace<T> {
        &self.ws
    }

    /// Backend the preconditioner was set up on.
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }
}

/// What a robust driver does when a solve ends abnormally
/// ([`crate::StopReason::is_abnormal`]): first restart IDR from the current
/// iterate (residual-system restart, up to `max_restarts` times), then
/// hand the original system to restarted GMRES as a last resort.
#[derive(Clone, Copy, Debug)]
pub struct RobustPolicy {
    /// IDR restarts to attempt before falling back (each restart solves
    /// the residual system `A e = b - A x` and corrects `x`).
    pub max_restarts: usize,
    /// Restart length for the GMRES fallback; `0` disables it.
    pub gmres_restart: usize,
}

impl Default for RobustPolicy {
    fn default() -> Self {
        RobustPolicy {
            max_restarts: 1,
            gmres_restart: 30,
        }
    }
}

/// A [`PrecondSolve`] plus what the robust driver had to do to get it.
pub struct RobustSolve<T> {
    /// The (possibly restarted / fallen-back) solve outcome. Iteration
    /// counts and histories accumulate across all attempts.
    pub solve: PrecondSolve<T>,
    /// IDR restarts actually performed.
    pub restarts: usize,
    /// `true` if the GMRES fallback ran.
    pub used_gmres: bool,
}

/// [`idr_precond`] wrapped in the breakdown-recovery policy: on an
/// abnormal stop the driver restarts IDR from the current iterate, and
/// if it still cannot finish cleanly, falls back to GMRES(m) with the
/// same preconditioner. A corrupted right-hand side (non-finite norm)
/// is reported as [`crate::StopReason::NonFinite`] without burning iterations.
#[allow(clippy::too_many_arguments)] // mirrors idr_precond + policy
pub fn idr_precond_robust<T: Scalar, M: BlockPreconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    part: &BlockPartition,
    backend: Arc<dyn Backend<T>>,
    opts: PrecondOptions,
    params: &SolveParams,
    policy: &RobustPolicy,
) -> Result<RobustSolve<T>, FactorError> {
    let m = M::setup_opts(a, part, backend, opts)?;
    let normb = nrm2(b).to_f64();

    let mut result = idr(a, b, s, &m, params);
    let mut restarts = 0usize;
    let mut used_gmres = false;

    while result.reason.is_abnormal() && restarts < policy.max_restarts {
        let mut r = vec![T::ZERO; b.len()];
        if !true_residual_norm(a, &result.x, b, &mut r).is_finite() {
            // the right-hand side (or iterate) is corrupted beyond what
            // a restart can repair
            break;
        }
        restarts += 1;
        let retry = idr(a, &r, s, &m, params);
        let mut x = result.x.clone();
        axpy(T::ONE, &retry.x, &mut x);
        result = merge_attempts(a, b, normb, x, &result, retry);
    }

    if result.reason.is_abnormal() && policy.gmres_restart > 0 {
        used_gmres = true;
        let g = gmres(a, b, policy.gmres_restart, &m, params);
        let x = g.x.clone();
        result = merge_attempts(a, b, normb, x, &result, g);
    }

    Ok(RobustSolve {
        solve: finish_solve(result, &m),
        restarts,
        used_gmres,
    })
}

/// Fold a retry/fallback attempt into the running result: the iterate
/// is `x`, counters and histories accumulate, the stop reason is the
/// latest attempt's (upgraded to `Converged` if the true residual now
/// meets the tolerance).
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
    use crate::StopReason;
    use vbatch_exec::CpuSequential;
    use vbatch_precond::BjMethod;
    use vbatch_sparse::gen::laplace::laplace_2d;

    fn backend() -> Arc<dyn Backend<f64>> {
        Arc::new(CpuSequential)
    }

    fn small_lu() -> PrecondOptions {
        PrecondOptions::default().with_method(BjMethod::SmallLu)
    }

    fn idr_bj(a: &CsrMatrix<f64>, b: &[f64], part: &BlockPartition) -> PrecondSolve<f64> {
        let params = SolveParams::default();
        idr_precond::<f64, BlockJacobi<f64>>(a, b, 4, part, backend(), small_lu(), &params).unwrap()
    }

    fn idr_bj_robust(a: &CsrMatrix<f64>, b: &[f64], part: &BlockPartition) -> RobustSolve<f64> {
        idr_precond_robust::<f64, BlockJacobi<f64>>(
            a,
            b,
            4,
            part,
            backend(),
            small_lu(),
            &SolveParams::default(),
            &RobustPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn robust_solve_converges_without_intervention() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let r = idr_bj_robust(&a, &b, &part);
        assert!(r.solve.result.converged());
        assert_eq!(r.restarts, 0);
        assert!(!r.used_gmres);
    }

    #[test]
    fn reusable_solver_matches_one_shot_bitwise() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let one_shot = idr_bj(&a, &b, &part);
        let mut handle = IdrSolver::<f64, BlockJacobi<f64>>::setup_opts(
            &a,
            4,
            &part,
            backend(),
            small_lu(),
            &SolveParams::default(),
        )
        .unwrap();
        let r1 = handle.solve(&a, &b);
        let r2 = handle.solve(&a, &b); // reuses recycled buffers
        assert!(r1.converged());
        assert_eq!(one_shot.result.x, r1.x);
        assert_eq!(r1.x, r2.x);
        assert_eq!(one_shot.result.iterations, r2.iterations);
        assert!(handle.workspace().high_water() > 0);
        assert_eq!(handle.backend_name(), "cpu-seq");
        assert!(one_shot.precond_label.starts_with("block-jacobi"));
        // the prepared apply ran once per IDR iteration in both solves
        let stats = handle.precond().apply_stats();
        assert_eq!(stats.applies as usize, 2 * r1.iterations);
    }

    #[test]
    fn generic_driver_runs_block_ilu() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let bilu = idr_precond::<f64, BlockIlu0<f64>>(
            &a,
            &b,
            4,
            &part,
            backend(),
            small_lu(),
            &SolveParams::default(),
        )
        .unwrap();
        assert!(bilu.result.converged());
        assert!(bilu.precond_label.starts_with("block-ilu0"));
        // runtime dispatch agrees with the static instantiation
        let kinded = idr_precond_kind(
            PrecondKind::BlockIlu0,
            &a,
            &b,
            4,
            &part,
            backend(),
            small_lu(),
            &SolveParams::default(),
        )
        .unwrap();
        assert_eq!(bilu.result.x, kinded.result.x);
        assert_eq!(bilu.result.iterations, kinded.result.iterations);
    }

    #[test]
    fn generic_reusable_handle_runs_block_ilu() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let mut handle = IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(
            &a,
            4,
            &part,
            backend(),
            small_lu(),
            &SolveParams::default(),
        )
        .unwrap();
        let r1 = handle.solve(&a, &b);
        let r2 = handle.solve(&a, &b);
        assert!(r1.converged());
        assert_eq!(r1.x, r2.x);
        // BILU must not need more iterations than BJ on this SPD model
        let bj = idr_bj(&a, &b, &part);
        assert!(r1.iterations <= bj.result.iterations);
    }

    #[test]
    fn mixed_precision_policy_converges_degraded_free() {
        use vbatch_exec::PrecisionPolicy;
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let part = BlockPartition::uniform(64, 4);
        let dp = idr_bj(&a, &b, &part);
        let mixed = idr_precond::<f64, BlockJacobi<f64>>(
            &a,
            &b,
            4,
            &part,
            backend(),
            small_lu().with_precision(PrecisionPolicy::mixed::<f64>()),
            &SolveParams::default(),
        )
        .unwrap();
        assert!(mixed.result.converged());
        assert_eq!(mixed.fallback_blocks, 0, "no block may degrade under mixed");
        // well-conditioned Laplace diagonal blocks: all lowered, none promoted
        assert_eq!(mixed.lowered_blocks, 16);
        assert_eq!(mixed.promoted_blocks, 0);
        assert_eq!(dp.lowered_blocks, 0);
        // the converged iterates agree to solver tolerance
        let diff: f64 = dp
            .result
            .x
            .iter()
            .zip(&mixed.result.x)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = dp.result.x.iter().map(|v| v * v).sum::<f64>().sqrt();
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
        let r = idr_bj_robust(&a, &b, &part);
        assert_eq!(r.solve.result.reason, StopReason::NonFinite);
        assert!(r.used_gmres, "policy exhausts the fallback chain");
        assert_eq!(r.restarts, 0, "a NaN RHS cannot be restarted");
    }
}
