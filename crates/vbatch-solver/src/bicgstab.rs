//! BiCGSTAB (van der Vorst) with left preconditioning — a second
//! nonsymmetric Krylov solver for cross-checking the IDR results (the
//! MAGMA-sparse study the paper builds on, ref.\[11\], compares both).
//!
//! The recurrence only: triage, stopping checks and the exit residual
//! are [`crate::control`]'s one protocol. All nine iteration vectors
//! come from a [`KrylovWorkspace`]; the iteration loop performs no heap
//! allocations.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::control::{divisor_fault, Run, SolveParams, SolveResult, StopReason};
use crate::workspace::KrylovWorkspace;
use vbatch_core::Scalar;
use vbatch_precond::Preconditioner;
use vbatch_sparse::{axpy, dot, nrm2, spmv, CsrMatrix};

/// Solve `A x = b` with preconditioned BiCGSTAB.
pub fn bicgstab<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    m: &M,
    params: &SolveParams,
) -> SolveResult<T> {
    let n = a.nrows();
    let _span = vbatch_rt::span!("solver.bicgstab", n);
    let ws = &mut KrylovWorkspace::new();
    let mut run = match Run::begin(a, b, params, ws) {
        Ok(run) => run,
        Err(done) => return done,
    };

    let mut x = ws.take(n);
    let mut r = ws.take(n);
    r.copy_from_slice(b);
    let mut r_hat = ws.take(n);
    r_hat.copy_from_slice(&r);
    let mut rho = T::ONE;
    let mut alpha = T::ONE;
    let mut omega = T::ONE;
    let mut v = ws.take(n);
    let mut p = ws.take(n);
    // per-iteration temporaries, checked out once
    let mut phat = ws.take(n);
    let mut s_vec = ws.take(n);
    let mut shat = ws.take(n);
    let mut t = ws.take(n);
    let mut normr = nrm2(&r).to_f64();
    run.record(normr);
    let mut iter = 0usize;
    let mut stop: Option<StopReason> = None;

    while normr > run.target && iter < params.max_iters {
        let _step = vbatch_rt::span!("bicgstab.step", iter);
        vbatch_rt::counter!("solver.iterations", 1);
        let rho_new = dot(&r_hat, &r);
        stop = divisor_fault(rho_new);
        if stop.is_some() {
            break;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + beta (p - omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        phat.copy_from_slice(&p);
        m.apply_inplace(&mut phat);
        spmv(a, &phat, &mut v);
        iter += 1;
        let denom = dot(&r_hat, &v);
        stop = divisor_fault(denom);
        if stop.is_some() {
            break;
        }
        alpha = rho / denom;
        s_vec.copy_from_slice(&r);
        axpy(-alpha, &v, &mut s_vec);
        if run.converged_early(nrm2(&s_vec).to_f64()) {
            axpy(alpha, &phat, &mut x);
            stop = Some(StopReason::Converged);
            break;
        }
        shat.copy_from_slice(&s_vec);
        m.apply_inplace(&mut shat);
        spmv(a, &shat, &mut t);
        iter += 1;
        let tt = dot(&t, &t);
        if tt == T::ZERO {
            stop = Some(StopReason::Breakdown);
            break;
        }
        omega = dot(&t, &s_vec) / tt;
        stop = divisor_fault(omega);
        if stop.is_some() {
            break;
        }
        axpy(alpha, &phat, &mut x);
        axpy(omega, &shat, &mut x);
        // r takes over s_vec's values (a swap, so both buffers stay
        // checked out)
        std::mem::swap(&mut r, &mut s_vec);
        axpy(-omega, &t, &mut r);
        normr = nrm2(&r).to_f64();
        stop = run.observe(normr);
        if stop.is_some() {
            break;
        }
    }
    ws.recycle_all([r, r_hat, v, p, phat, s_vec, shat, t]);
    let reason = run.resolve(stop, normr);
    run.finish(x, iter, reason, ws)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_precond::Identity;
    use vbatch_sparse::gen::laplace::{convection_diffusion_2d, laplace_2d};

    #[test]
    fn solves_spd_system() {
        let a = laplace_2d::<f64>(10, 10);
        let b = vec![1.0; 100];
        let r = bicgstab(&a, &b, &Identity::new(100), &SolveParams::default());
        assert!(r.converged());
        assert!(r.final_relres < 1e-6);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let a = convection_diffusion_2d::<f64>(10, 10, 1.2);
        let b: Vec<f64> = (0..100).map(|i| (i % 7) as f64 - 3.0).collect();
        let r = bicgstab(&a, &b, &Identity::new(100), &SolveParams::default());
        assert!(r.converged());
    }
}
