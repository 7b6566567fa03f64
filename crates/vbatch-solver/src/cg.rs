//! Preconditioned Conjugate Gradients — for the SPD problems in the
//! suite (pairs naturally with the Cholesky-based block-Jacobi
//! extension).
//!
//! The recurrence only: triage, stopping checks and the exit residual
//! are [`crate::control`]'s one protocol. All iteration vectors come
//! from a [`KrylovWorkspace`]; the iteration loop performs no heap
//! allocations.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::control::{divisor_fault, Run, SolveParams, SolveResult, StopReason};
use crate::workspace::KrylovWorkspace;
use vbatch_core::Scalar;
use vbatch_precond::Preconditioner;
use vbatch_sparse::{axpy, dot, nrm2, spmv, CsrMatrix};

/// Solve the SPD system `A x = b` with preconditioned CG.
pub fn cg<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    m: &M,
    params: &SolveParams,
) -> SolveResult<T> {
    let n = a.nrows();
    let _span = vbatch_rt::span!("solver.cg", n);
    let ws = &mut KrylovWorkspace::new();
    let mut run = match Run::begin(a, b, params, ws) {
        Ok(run) => run,
        Err(done) => return done,
    };

    let mut x = ws.take(n);
    let mut r = ws.take(n);
    r.copy_from_slice(b);
    let mut z = ws.take(n);
    z.copy_from_slice(&r);
    m.apply_inplace(&mut z);
    let mut p = ws.take(n);
    p.copy_from_slice(&z);
    let mut ap = ws.take(n);
    let mut rz = dot(&r, &z);
    let mut normr = nrm2(&r).to_f64();
    run.record(normr);
    let mut iter = 0usize;
    let mut stop: Option<StopReason> = None;

    while normr > run.target && iter < params.max_iters {
        let _step = vbatch_rt::span!("cg.step", iter);
        vbatch_rt::counter!("solver.iterations", 1);
        spmv(a, &p, &mut ap);
        iter += 1;
        let pap = dot(&p, &ap);
        stop = divisor_fault(pap);
        if stop.is_some() {
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        normr = nrm2(&r).to_f64();
        stop = run.observe(normr);
        if stop.is_some() {
            break;
        }
        z.copy_from_slice(&r);
        m.apply_inplace(&mut z);
        let rz_new = dot(&r, &z);
        if rz == T::ZERO {
            stop = Some(StopReason::Breakdown);
            break;
        }
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    ws.recycle_all([r, z, p, ap]);
    let reason = run.resolve(stop, normr);
    run.finish(x, iter, reason, ws)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_precond::{Identity, Jacobi};
    use vbatch_sparse::gen::laplace::laplace_2d;

    #[test]
    fn solves_laplacian() {
        let a = laplace_2d::<f64>(12, 12);
        let b = vec![1.0; 144];
        let r = cg(&a, &b, &Identity::new(144), &SolveParams::default());
        assert!(r.converged());
        assert!(r.final_relres < 1e-6);
    }

    #[test]
    fn preconditioned_cg_converges() {
        let a = laplace_2d::<f64>(12, 12);
        let b = vec![1.0; 144];
        let jac = Jacobi::setup(&a).unwrap();
        let r = cg(&a, &b, &jac, &SolveParams::default());
        assert!(r.converged());
    }
}
