//! Restarted GMRES(m) with left preconditioning and modified
//! Gram-Schmidt orthogonalization — the long-recurrence reference
//! against the short-recurrence solvers (IDR, BiCGSTAB).
//!
//! The recurrence only: triage, the restart-time check and the exit
//! residual are [`crate::control`]'s one protocol — minus its
//! stagnation guard: GMRES is [`crate::IdrSolver::solve_robust`]'s
//! last resort and spends its budget. The Krylov basis, Hessenberg
//! columns (flat, row-major) and rotation state all come from a
//! [`KrylovWorkspace`]; neither the restart cycles nor the inner Arnoldi
//! steps allocate.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::control::{
    divisor_fault, true_residual_norm, Run, SolveParams, SolveResult, StopReason,
};
use crate::workspace::KrylovWorkspace;
use vbatch_core::Scalar;
use vbatch_precond::Preconditioner;
use vbatch_sparse::{axpy, dot, nrm2, spmv, CsrMatrix};

/// Solve `A x = b` with preconditioned GMRES, restarting every
/// `restart` iterations.
pub fn gmres<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    restart: usize,
    m: &M,
    params: &SolveParams,
) -> SolveResult<T> {
    assert!(restart >= 1);
    let n = a.nrows();
    let _span = vbatch_rt::span!("solver.gmres", n);
    let ws = &mut KrylovWorkspace::new();
    let mut run = match Run::begin(a, b, params, ws) {
        Ok(run) => run,
        Err(done) => return done,
    };
    // left preconditioning: the Arnoldi residual is the *preconditioned*
    // one; convergence is still checked on the true residual at restarts
    let mut x = ws.take(n);
    let mut r = ws.take(n);
    let mut w = ws.take(n);
    // persistent Krylov basis; per restart only basis[..=k_done] is live
    let mut basis: Vec<Vec<T>> = (0..restart + 1).map(|_| ws.take(n)).collect();
    // Hessenberg (restart+1 rows x restart cols, flat) + Givens state;
    // every entry is written before it is read within a restart cycle,
    // so none of these need re-zeroing between cycles
    let mut h = ws.take((restart + 1) * restart);
    let mut cs = ws.take(restart);
    let mut sn = ws.take(restart);
    let mut g = ws.take(restart + 1);
    let mut y = ws.take(restart);
    let mut iter = 0usize;

    let reason = loop {
        let true_normr = true_residual_norm(a, &x, b, &mut r);
        if let Some(why) = run.check(true_normr) {
            break why;
        }
        if iter >= params.max_iters {
            break StopReason::MaxIterations;
        }
        m.apply_inplace(&mut r);
        let beta = nrm2(&r);
        // non-finite: the preconditioner produced NaN/Inf — a faulted block
        if let Some(why) = divisor_fault(beta) {
            break why;
        }
        // Arnoldi with MGS
        basis[0].copy_from_slice(&r);
        vbatch_sparse::scal(T::ONE / beta, &mut basis[0]);
        g[0] = beta;
        let mut k_done = 0usize;
        for k in 0..restart {
            if iter >= params.max_iters {
                break;
            }
            let _step = vbatch_rt::span!("gmres.step", iter);
            vbatch_rt::counter!("solver.iterations", 1);
            spmv(a, &basis[k], &mut w);
            iter += 1;
            m.apply_inplace(&mut w);
            for (i, vi) in basis[..=k].iter().enumerate() {
                h[i * restart + k] = dot(vi, &w);
                axpy(-h[i * restart + k], vi, &mut w);
            }
            let hk1 = nrm2(&w);
            h[(k + 1) * restart + k] = hk1;
            // apply previous rotations to column k
            for i in 0..k {
                let t = cs[i] * h[i * restart + k] + sn[i] * h[(i + 1) * restart + k];
                h[(i + 1) * restart + k] =
                    -sn[i] * h[i * restart + k] + cs[i] * h[(i + 1) * restart + k];
                h[i * restart + k] = t;
            }
            // new rotation
            let denom = (h[k * restart + k] * h[k * restart + k] + hk1 * hk1).sqrt();
            if denom == T::ZERO {
                k_done = k;
                break;
            }
            cs[k] = h[k * restart + k] / denom;
            sn[k] = hk1 / denom;
            h[k * restart + k] = denom;
            h[(k + 1) * restart + k] = T::ZERO;
            g[k + 1] = -sn[k] * g[k];
            g[k] = cs[k] * g[k];
            k_done = k + 1;
            let prec_res = g[k + 1].abs().to_f64();
            run.record(prec_res);
            if hk1 == T::ZERO || prec_res <= run.target * 0.1 {
                break;
            }
            if k + 1 < restart + 1 {
                basis[k + 1].copy_from_slice(&w);
                vbatch_sparse::scal(T::ONE / hk1, &mut basis[k + 1]);
            }
        }
        // back-substitute y and update x
        if k_done == 0 {
            break StopReason::Breakdown;
        }
        for i in (0..k_done).rev() {
            let mut acc = g[i];
            for j in i + 1..k_done {
                acc -= h[i * restart + j] * y[j];
            }
            y[i] = acc / h[i * restart + i];
        }
        for (j, &yj) in y[..k_done].iter().enumerate() {
            axpy(yj, &basis[j], &mut x);
        }
    };

    ws.recycle_all([r, w, h, cs, sn, g, y]);
    ws.recycle_all(basis);
    run.finish(x, iter, reason, ws)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_precond::{Identity, Jacobi};
    use vbatch_sparse::gen::laplace::{convection_diffusion_2d, laplace_2d};

    #[test]
    fn solves_spd_system() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let r = gmres(&a, &b, 30, &Identity::new(64), &SolveParams::default());
        assert!(r.converged(), "{:?} relres {}", r.reason, r.final_relres);
    }

    #[test]
    fn solves_nonsymmetric_with_restart() {
        let a = convection_diffusion_2d::<f64>(10, 10, 0.9);
        let b: Vec<f64> = (0..100).map(|i| 1.0 + (i % 3) as f64).collect();
        let r = gmres(&a, &b, 15, &Identity::new(100), &SolveParams::default());
        assert!(r.converged());
        assert!(r.final_relres < 1e-6);
    }

    #[test]
    fn preconditioning_works() {
        let a = convection_diffusion_2d::<f64>(10, 10, 0.9);
        let b = vec![1.0; 100];
        let jac = Jacobi::setup(&a).unwrap();
        let r = gmres(&a, &b, 20, &jac, &SolveParams::default());
        assert!(r.converged());
    }
}
