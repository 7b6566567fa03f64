//! IDR(s) — the Induced Dimension Reduction method with
//! biorthogonalization (van Gijzen & Sonneveld, TOMS 2011), the Krylov
//! solver the paper's block-Jacobi evaluation drives (IDR(4), §IV-D).
//!
//! The implementation follows the `idrs` reference algorithm: each
//! cycle performs `s` preconditioned matvecs inside the `G_j` space plus
//! one dimension-reduction step, maintaining `P^T G` lower triangular
//! through explicit biorthogonalization. The shadow space `P` is a
//! seeded, orthonormalized random `n x s` block, so runs are
//! reproducible.
//!
//! The recurrence only: triage, stopping checks and the exit residual
//! are [`crate::control`]'s one protocol. All iteration vectors come
//! from a [`KrylovWorkspace`]; the main loop performs no heap
//! allocations — every temporary is checked out once before the loop
//! and reused in place, and the `G`/`U` direction blocks are updated by
//! `mem::swap`. The passes that touch several vectors at once (`Pᵀr`,
//! the `M_s` column, the two linear combinations, the three reductions
//! of the dimension-reduction step) are the one-pass kernels of
//! `fused.rs`.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::control::{divisor_fault, Run, SolveParams, SolveResult, StopReason};
use crate::fused;
use crate::workspace::KrylovWorkspace;
use vbatch_core::Scalar;
use vbatch_precond::Preconditioner;
use vbatch_rt::SmallRng;
use vbatch_sparse::{axpy, dot, nrm2, spmv, CsrMatrix};

/// Angle safeguard for the omega computation ("maintaining the
/// convergence" constant of van Gijzen's implementation).
const KAPPA: f64 = 0.7;

/// Minimal-residual smoothing state (van Gijzen's "IDR(s) with
/// smoothing"): tracks an auxiliary iterate whose residual norm
/// decreases monotonically, taming IDR's erratic convergence curve.
struct Smoother<T> {
    xs: Vec<T>,
    rs: Vec<T>,
}

impl<T: Scalar> Smoother<T> {
    fn checkout(ws: &mut KrylovWorkspace<T>, x: &[T], r: &[T]) -> Self {
        let mut xs = ws.take(x.len());
        xs.copy_from_slice(x);
        let mut rs = ws.take(r.len());
        rs.copy_from_slice(r);
        Smoother { xs, rs }
    }

    /// Fold the latest (x, r) pair in; returns the smoothed residual norm.
    fn update(&mut self, x: &[T], r: &[T]) -> f64 {
        // s = rs - r; eta = (rs . s)/(s . s)
        let mut ss = T::ZERO;
        let mut rss = T::ZERO;
        for (rsi, ri) in self.rs.iter().zip(r) {
            let si = *rsi - *ri;
            ss += si * si;
            rss += *rsi * si;
        }
        if ss > T::ZERO {
            let eta = rss / ss;
            for ((xsi, &xi), (rsi, &ri)) in self.xs.iter_mut().zip(x).zip(self.rs.iter_mut().zip(r))
            {
                *xsi = *xsi - eta * (*xsi - xi);
                *rsi = *rsi - eta * (*rsi - ri);
            }
        }
        nrm2(&self.rs).to_f64()
    }
}

/// Solve `A x = b` with preconditioned IDR(s).
pub fn idr<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    m: &M,
    params: &SolveParams,
) -> SolveResult<T> {
    let mut ws = KrylovWorkspace::new();
    idr_impl(a, b, s, m, params, false, &mut ws)
}

/// [`idr`] drawing all iteration vectors from a caller-owned
/// [`KrylovWorkspace`], so repeated solves (e.g. a time-stepping loop)
/// reuse buffers instead of re-allocating. Results are bitwise
/// identical to [`idr`].
pub fn idr_with_workspace<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    m: &M,
    params: &SolveParams,
    ws: &mut KrylovWorkspace<T>,
) -> SolveResult<T> {
    idr_impl(a, b, s, m, params, false, ws)
}

/// Solve `A x = b` with preconditioned IDR(s) plus minimal-residual
/// smoothing — the convergence curve of the returned iterate decreases
/// monotonically (an extension over the paper's plain IDR(4) setup).
pub fn idr_smoothed<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    m: &M,
    params: &SolveParams,
) -> SolveResult<T> {
    let mut ws = KrylovWorkspace::new();
    idr_impl(a, b, s, m, params, true, &mut ws)
}

fn idr_impl<T: Scalar, M: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    s: usize,
    m: &M,
    params: &SolveParams,
    smoothing: bool,
    ws: &mut KrylovWorkspace<T>,
) -> SolveResult<T> {
    assert!(s >= 1, "IDR needs s >= 1");
    assert_eq!(m.dim(), a.nrows());
    let n = a.nrows();
    let _span = vbatch_rt::span!("solver.idr", n);
    let mut run = match Run::begin(a, b, params, ws) {
        Ok(run) => run,
        Err(done) => return done,
    };

    let mut x = ws.take(n);
    let mut r = ws.take(n);
    r.copy_from_slice(b);
    let mut normr = nrm2(&r).to_f64();
    run.record(normr);
    let mut smoother = if smoothing {
        Some(Smoother::checkout(ws, &x, &r))
    } else {
        None
    };

    // shadow space P: s orthonormalized random vectors (seeded)
    let p = shadow_space::<T>(n, s, 0xD1E5_EED5, ws);

    let mut g: Vec<Vec<T>> = (0..s).map(|_| ws.take(n)).collect();
    let mut u: Vec<Vec<T>> = (0..s).map(|_| ws.take(n)).collect();
    // M_s = P^T G, kept lower triangular (flat s*s, row-major); starts
    // as identity
    let mut ms = ws.take(s * s);
    for k in 0..s {
        ms[k * s + k] = T::ONE;
    }
    // per-iteration temporaries, checked out once: the loop below never
    // touches the allocator
    let mut f = ws.take(s);
    let mut c = ws.take(s);
    let mut v = ws.take(n);
    let mut uk = ws.take(n);
    let mut gk = ws.take(n);
    let mut t = ws.take(n);
    let mut om = T::ONE;
    let mut iter = 0usize;
    let mut stop: Option<StopReason> = None;

    'cycles: while normr > run.target && iter < params.max_iters {
        // f = P^T r
        fused::dots(&p, &r, |i, d| f[i] = d);
        for k in 0..s {
            let _step = vbatch_rt::span!("idr.step", iter);
            vbatch_rt::counter!("solver.iterations", 1);
            // solve the lower-triangular system Ms[k.., k..] c = f[k..];
            // every c entry is written before it is read, so the reused
            // buffer needs no clearing
            for i in k..s {
                let mut acc = f[i];
                for j in k..i {
                    acc -= ms[i * s + j] * c[j - k];
                }
                let d = ms[i * s + i];
                stop = divisor_fault(d);
                if stop.is_some() {
                    break 'cycles;
                }
                c[i - k] = acc / d;
            }
            // v = r - sum c_i g_i ; then precondition
            fused::lincomb(&mut v, &r, None, |i| -c[i], &g[k..]);
            m.apply_inplace(&mut v);
            // u_k = om*v + sum c_i u_i
            fused::lincomb(&mut uk, &v, Some(om), |i| c[i], &u[k..]);
            // g_k = A u_k (spmv overwrites gk row by row)
            spmv(a, &uk, &mut gk);
            iter += 1;
            // biorthogonalize against p_0..p_{k-1}
            for i in 0..k {
                let alpha = dot(&p[i], &gk) / ms[i * s + i];
                axpy(-alpha, &g[i], &mut gk);
                axpy(-alpha, &u[i], &mut uk);
            }
            // refresh column k of Ms
            fused::dots(&p[k..], &gk, |i, d| ms[(k + i) * s + k] = d);
            let mkk = ms[k * s + k];
            stop = divisor_fault(mkk);
            if stop.is_some() {
                break 'cycles;
            }
            let beta = f[k] / mkk;
            axpy(-beta, &gk, &mut r);
            axpy(beta, &uk, &mut x);
            normr = nrm2(&r).to_f64();
            if let Some(sm) = smoother.as_mut() {
                normr = sm.update(&x, &r);
            }
            stop = run.observe(normr);
            if stop.is_some() {
                break 'cycles;
            }
            std::mem::swap(&mut g[k], &mut gk);
            std::mem::swap(&mut u[k], &mut uk);
            if iter >= params.max_iters {
                break 'cycles;
            }
            // update f for the remaining steps of this cycle
            for (i, fi) in f.iter_mut().enumerate() {
                if i <= k {
                    *fi = T::ZERO;
                } else {
                    *fi -= beta * ms[i * s + k];
                }
            }
        }
        // dimension-reduction step: enter G_{j+1}
        let _step = vbatch_rt::span!("idr.reduce", iter);
        vbatch_rt::counter!("solver.iterations", 1);
        v.copy_from_slice(&r);
        m.apply_inplace(&mut v);
        spmv(a, &v, &mut t);
        iter += 1;
        let (nt, nr, ts) = fused::norms_and_dot(&t, &r);
        if nt == T::ZERO {
            stop = Some(StopReason::Breakdown);
            break;
        }
        let rho = (ts.abs() / (nt * nr)).to_f64();
        om = ts / (nt * nt);
        if rho < KAPPA && rho > 0.0 {
            om *= T::from_f64(KAPPA / rho);
        }
        stop = divisor_fault(om);
        if stop.is_some() {
            break;
        }
        axpy(om, &v, &mut x);
        axpy(-om, &t, &mut r);
        normr = nrm2(&r).to_f64();
        if let Some(sm) = smoother.as_mut() {
            normr = sm.update(&x, &r);
        }
        stop = run.observe(normr);
        if stop.is_some() {
            break;
        }
    }

    let reason = run.resolve(stop, normr);
    // single exit point: recycle everything except the returned iterate
    ws.recycle_all([r, f, c, v, uk, gk, t, ms]);
    ws.recycle_all(p);
    ws.recycle_all(g);
    ws.recycle_all(u);
    let x_final = match smoother {
        // abnormal stops return the raw iterate
        Some(sm) if !reason.is_abnormal() => {
            ws.recycle(x);
            ws.recycle(sm.rs);
            sm.xs
        }
        Some(sm) => {
            ws.recycle(sm.xs);
            ws.recycle(sm.rs);
            x
        }
        None => x,
    };
    run.finish(x_final, iter, reason, ws)
}

/// Build an orthonormal shadow block (modified Gram-Schmidt on seeded
/// Gaussian-ish vectors), drawing the vectors from the workspace.
fn shadow_space<T: Scalar>(
    n: usize,
    s: usize,
    seed: u64,
    ws: &mut KrylovWorkspace<T>,
) -> Vec<Vec<T>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p: Vec<Vec<T>> = Vec::with_capacity(s);
    for _ in 0..s {
        let mut v = ws.take(n);
        for vi in v.iter_mut() {
            *vi = T::from_f64(rng.gen_range(-1.0..1.0));
        }
        for q in &p {
            let alpha = dot(q, &v);
            axpy(-alpha, q, &mut v);
        }
        let nv = nrm2(&v);
        if nv > T::ZERO {
            vbatch_sparse::scal(T::ONE / nv, &mut v);
        }
        p.push(v);
    }
    p
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_precond::{Identity, Jacobi};
    use vbatch_sparse::gen::laplace::{convection_diffusion_2d, laplace_2d};

    #[test]
    fn solves_laplacian_unpreconditioned() {
        let a = laplace_2d::<f64>(10, 10);
        let b = vec![1.0; 100];
        let r = idr(&a, &b, 4, &Identity::new(100), &SolveParams::default());
        assert!(r.converged(), "{:?}", r.reason);
        assert!(r.final_relres < 1e-6);
        assert!(r.iterations > 0);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let a = convection_diffusion_2d::<f64>(12, 12, 1.0);
        let b = vec![1.0; 144];
        let r = idr(&a, &b, 4, &Identity::new(144), &SolveParams::default());
        assert!(r.converged());
        // verify the true residual independently
        let res = vbatch_sparse::residual(&a, &r.x, &b);
        assert!(nrm2(&res) / nrm2(&b) < 1e-6);
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations() {
        let a = {
            // badly scaled diagonal: Jacobi should help a lot
            let base = laplace_2d::<f64>(12, 12);
            let mut coo = vbatch_sparse::CooMatrix::new(144, 144);
            for r in 0..144 {
                let scale = 1.0 + (r % 10) as f64 * 10.0;
                for (c, v) in base.row_cols(r).iter().zip(base.row_vals(r)) {
                    coo.push(r, *c, v * scale);
                }
            }
            coo.to_csr()
        };
        let b = vec![1.0; 144];
        let plain = idr(&a, &b, 4, &Identity::new(144), &SolveParams::default());
        let jac = Jacobi::setup(&a).unwrap();
        let prec = idr(&a, &b, 4, &jac, &SolveParams::default());
        assert!(prec.converged());
        assert!(
            prec.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            prec.iterations,
            plain.iterations
        );
    }

    #[test]
    fn s_variants_all_converge() {
        let a = laplace_2d::<f64>(8, 8);
        let b: Vec<f64> = (0..64).map(|i| 1.0 + (i % 5) as f64).collect();
        for s in [1usize, 2, 4, 8] {
            let r = idr(&a, &b, s, &Identity::new(64), &SolveParams::default());
            assert!(r.converged(), "s={s}: {:?}", r.reason);
        }
    }

    #[test]
    fn history_is_monotonic_enough_and_recorded() {
        let a = laplace_2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let params = SolveParams::default().with_history();
        let r = idr(&a, &b, 4, &Identity::new(64), &params);
        assert!(!r.history.is_empty());
        assert!(*r.history.last().unwrap() <= 1e-6);
    }

    #[test]
    fn smoothed_idr_solves_and_is_monotone() {
        let a = convection_diffusion_2d::<f64>(14, 14, 0.9);
        let n = a.nrows();
        let b = vec![1.0; n];
        let params = SolveParams::default().with_history();
        let r = idr_smoothed(&a, &b, 4, &Identity::new(n), &params);
        assert!(r.converged(), "{:?}", r.reason);
        assert!(r.final_relres < 1e-6 * 1.5);
        // the smoothed residual history never increases (up to roundoff)
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "{} -> {}", w[0], w[1]);
        }
        // plain IDR's history on the same problem is NOT monotone
        let rp = idr(&a, &b, 4, &Identity::new(n), &params);
        let bumps = rp
            .history
            .windows(2)
            .filter(|w| w[1] > w[0] * (1.0 + 1e-12))
            .count();
        assert!(bumps > 0, "plain IDR should wiggle");
    }

    #[test]
    fn smoothed_and_plain_agree_on_the_solution() {
        let a = laplace_2d::<f64>(9, 9);
        let b: Vec<f64> = (0..81).map(|i| 1.0 + (i % 4) as f64).collect();
        let params = SolveParams::default().with_tol(1e-10);
        let r1 = idr(&a, &b, 4, &Identity::new(81), &params);
        let r2 = idr_smoothed(&a, &b, 4, &Identity::new(81), &params);
        assert!(r1.converged() && r2.converged());
        for (p, q) in r1.x.iter().zip(&r2.x) {
            assert!((p - q).abs() < 1e-7);
        }
    }
}
