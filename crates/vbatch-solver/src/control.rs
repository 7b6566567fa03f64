//! The stopping protocol and solve reporting shared by all Krylov
//! solvers.
//!
//! The paper's experiment protocol (§IV-D): right-hand side of all
//! ones, zero initial guess, stop when the relative residual norm drops
//! by six orders of magnitude, cap at 10,000 iterations.
//!
//! Beyond the paper protocol, every solver reports *why* it stopped
//! with enough resolution for a driver to react: short-recurrence
//! breakdowns, non-finite residuals (a faulted preconditioner or RHS)
//! and stagnation each get their own [`StopReason`], so a run can never
//! silently burn the whole iteration budget on a solve that broke down
//! at iteration three.
//!
//! The protocol is written once, in the crate-private `Run`: the
//! right-hand-side triage, the target `tol·‖b‖`, the optional history,
//! the stagnation guard, the order of the per-iteration checks, and the
//! true-residual epilogue. `idr`, `bicgstab`, `cg` and `gmres` are
//! their recurrences over it (DESIGN.md §6 has the method-by-method
//! table). GMRES alone checks convergence on the true residual, at
//! restarts, and never consults the stagnation guard.
//!
//! The per-iteration path below touches no allocator (the history is
//! reserved up front), under the same clippy tripwire as the method
//! files.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::workspace::KrylovWorkspace;
use std::time::{Duration, Instant};
use vbatch_core::Scalar;
use vbatch_sparse::{nrm2, spmv, CsrMatrix};

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct SolveParams {
    /// Relative residual reduction target (paper: `1e-6`).
    pub tol: f64,
    /// Iteration cap (paper: 10,000).
    pub max_iters: usize,
    /// Record the residual history (costs one `Vec` push per iteration).
    pub record_history: bool,
    /// Stagnation window: stop with [`StopReason::Stagnated`] when the
    /// best residual norm has not improved by at least
    /// [`SolveParams::stagnation_rtol`] (relative) over this many
    /// consecutive iterations. `0` disables the check.
    pub stagnation_window: usize,
    /// Minimum relative improvement of the best residual norm that
    /// resets the stagnation window.
    pub stagnation_rtol: f64,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            tol: 1e-6,
            max_iters: 10_000,
            record_history: false,
            stagnation_window: 0,
            stagnation_rtol: 1e-8,
        }
    }
}

impl SolveParams {
    /// Paper protocol with a custom iteration cap.
    pub fn with_max_iters(mut self, it: usize) -> Self {
        self.max_iters = it;
        self
    }

    /// Paper protocol with a custom tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Enable residual-history recording.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Enable stagnation detection over a window of `iters` iterations.
    pub fn with_stagnation_window(mut self, iters: usize) -> Self {
        self.stagnation_window = iters;
        self
    }
}

/// Incremental stagnation detector: feed it every residual norm; it
/// trips once the best norm has not improved (relatively) for a full
/// window of iterations.
#[derive(Clone, Debug)]
pub struct StagnationGuard {
    window: usize,
    rtol: f64,
    best: f64,
    since_improvement: usize,
}

impl StagnationGuard {
    /// Guard configured from the solve parameters (inactive when the
    /// window is zero).
    pub fn new(params: &SolveParams) -> Self {
        StagnationGuard {
            window: params.stagnation_window,
            rtol: params.stagnation_rtol,
            best: f64::INFINITY,
            since_improvement: 0,
        }
    }

    /// Record one residual norm; returns `true` when the solve has
    /// stagnated and should stop.
    pub fn observe(&mut self, normr: f64) -> bool {
        if self.window == 0 {
            return false;
        }
        if normr < self.best * (1.0 - self.rtol) {
            self.best = normr;
            self.since_improvement = 0;
            return false;
        }
        self.since_improvement += 1;
        self.since_improvement >= self.window
    }
}

/// Why a solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Relative residual reached the target.
    Converged,
    /// Iteration cap hit.
    MaxIterations,
    /// A breakdown in the short recurrences (division by zero).
    Breakdown,
    /// The right-hand side, a residual norm or a recurrence scalar is
    /// non-finite (NaN/Inf): faulted data, not the method's fault.
    NonFinite,
    /// The residual norm stopped improving for a full stagnation
    /// window (see [`SolveParams::stagnation_window`]).
    Stagnated,
}

impl StopReason {
    /// `true` for the abnormal endings a robust driver should react to
    /// (restart or fall back): breakdown, non-finite, stagnation.
    pub fn is_abnormal(self) -> bool {
        matches!(
            self,
            StopReason::Breakdown | StopReason::NonFinite | StopReason::Stagnated
        )
    }

    /// Stable label used in reports and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::MaxIterations => "max_iterations",
            StopReason::Breakdown => "breakdown",
            StopReason::NonFinite => "non_finite",
            StopReason::Stagnated => "stagnated",
        }
    }
}

impl core::fmt::Display for StopReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one linear solve.
#[derive(Clone, Debug)]
pub struct SolveResult<T> {
    /// Final iterate.
    pub x: Vec<T>,
    /// Iterations performed (counted as preconditioned matrix-vector
    /// products, the convention MAGMA-sparse reports).
    pub iterations: usize,
    /// Final relative residual (`||b - A x|| / ||b||`, true residual).
    pub final_relres: f64,
    /// Why the solver stopped.
    pub reason: StopReason,
    /// Wall-clock time of the iteration loop.
    pub solve_time: Duration,
    /// Residual-norm history (empty unless requested).
    pub history: Vec<f64>,
}

impl<T> SolveResult<T> {
    /// `true` if the target tolerance was met.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }
}

/// `‖b − A x‖₂`, the residual itself left in `r`. The one place the
/// true residual is formed: GMRES' restarts, every solver's exit and
/// the robust driver's merged attempts.
pub(crate) fn true_residual_norm<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &[T],
    b: &[T],
    r: &mut [T],
) -> f64 {
    spmv(a, x, r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    nrm2(r).to_f64()
}

/// Triage of a scalar a recurrence is about to divide by: non-finite
/// means the data feeding it was (a faulted preconditioner or matrix),
/// exactly zero is the method's own breakdown.
pub(crate) fn divisor_fault<T: Scalar>(d: T) -> Option<StopReason> {
    if !d.is_finite() {
        Some(StopReason::NonFinite)
    } else if d == T::ZERO {
        Some(StopReason::Breakdown)
    } else {
        None
    }
}

/// The state of one solve under the stopping protocol.
pub(crate) struct Run<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: &'a [T],
    start: Instant,
    normb: f64,
    /// The absolute target `tol · ‖b‖`.
    pub(crate) target: f64,
    record: bool,
    history: Vec<f64>,
    stagnation: StagnationGuard,
}

impl<'a, T: Scalar> Run<'a, T> {
    /// Start the clock and triage the right-hand side. A zero `b` is
    /// solved by `x = 0` ([`StopReason::Converged`]) and a non-finite
    /// one cannot be iterated on ([`StopReason::NonFinite`]): both come
    /// back as the finished `Err` result at 0 iterations.
    pub(crate) fn begin(
        a: &'a CsrMatrix<T>,
        b: &'a [T],
        params: &SolveParams,
        ws: &mut KrylovWorkspace<T>,
    ) -> Result<Self, SolveResult<T>> {
        assert_eq!(a.nrows(), a.ncols());
        assert_eq!(b.len(), a.nrows());
        let start = Instant::now();
        let normb = nrm2(b).to_f64();
        let run = Run {
            a,
            b,
            start,
            normb,
            target: params.tol * normb,
            record: params.record_history,
            // GMRES records an Arnoldi estimate per step and the true
            // residual per restart: two entries per iteration at most
            history: Vec::with_capacity(if params.record_history {
                2 * (params.max_iters + 2)
            } else {
                0
            }),
            stagnation: StagnationGuard::new(params),
        };
        let triage = if normb == 0.0 {
            StopReason::Converged
        } else if !normb.is_finite() {
            StopReason::NonFinite
        } else {
            return Ok(run);
        };
        Err(run.finish(ws.take(b.len()), 0, triage, ws))
    }

    /// Record a residual norm that decides nothing: the initial
    /// residual, GMRES' per-step Arnoldi estimate.
    pub(crate) fn record(&mut self, normr: f64) {
        if self.record {
            self.history.push(normr / self.normb);
        }
    }

    /// [`Run::observe`] without the stagnation guard — what GMRES calls
    /// on the true residual at each restart: it is the robust driver's
    /// last resort and spends its budget rather than give up early.
    pub(crate) fn check(&mut self, normr: f64) -> Option<StopReason> {
        self.record(normr);
        if !normr.is_finite() {
            Some(StopReason::NonFinite)
        } else if normr <= self.target {
            Some(StopReason::Converged)
        } else {
            None
        }
    }

    /// One iteration's residual norm, in the protocol's fixed order:
    /// history, then [`StopReason::NonFinite`], then
    /// [`StopReason::Converged`], then [`StopReason::Stagnated`] (the
    /// guard is never shown a converged or non-finite norm).
    pub(crate) fn observe(&mut self, normr: f64) -> Option<StopReason> {
        self.check(normr).or_else(|| {
            self.stagnation
                .observe(normr)
                .then_some(StopReason::Stagnated)
        })
    }

    /// A residual norm available mid-iteration (BiCGSTAB's half step)
    /// can only end the solve by convergence; it is recorded only when
    /// it does, and the stagnation guard never sees it.
    pub(crate) fn converged_early(&mut self, normr: f64) -> bool {
        let met = normr <= self.target;
        if met {
            self.record(normr);
        }
        met
    }

    /// The reason of a loop that ended with `stop` (an abnormal ending
    /// or an observed convergence) or, with `None`, ran out: converged
    /// if the last norm met the target, out of budget otherwise.
    pub(crate) fn resolve(&self, stop: Option<StopReason>, normr: f64) -> StopReason {
        stop.unwrap_or(if normr <= self.target {
            StopReason::Converged
        } else {
            StopReason::MaxIterations
        })
    }

    /// Compute the true residual of `x` in a workspace buffer (the
    /// caller has recycled its own vectors, so a warm workspace serves
    /// it from the pool), stamp the time and build the result.
    pub(crate) fn finish(
        self,
        x: Vec<T>,
        iterations: usize,
        reason: StopReason,
        ws: &mut KrylovWorkspace<T>,
    ) -> SolveResult<T> {
        let final_relres = if self.normb == 0.0 {
            0.0
        } else {
            let mut r = ws.take(x.len());
            let normr = true_residual_norm(self.a, &x, self.b, &mut r);
            ws.recycle(r);
            normr / self.normb
        };
        SolveResult {
            x,
            iterations,
            final_relres,
            reason,
            solve_time: self.start.elapsed(),
            history: self.history,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::{bicgstab, cg, gmres, idr};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vbatch_precond::{Identity, Preconditioner};
    use vbatch_sparse::gen::laplace::laplace_2d;

    /// Identity that poisons one entry on its `at`-th application.
    struct NanAt {
        n: usize,
        at: usize,
        calls: AtomicUsize,
    }

    impl Preconditioner<f64> for NanAt {
        fn apply_inplace(&self, v: &mut [f64]) {
            if self.calls.fetch_add(1, Ordering::Relaxed) == self.at {
                v[0] = f64::NAN;
            }
        }

        fn dim(&self) -> usize {
            self.n
        }

        fn label(&self) -> String {
            "nan-at".to_string()
        }
    }

    /// Every method on one system, each with a fresh preconditioner.
    fn all_methods<M: Preconditioner<f64>>(
        a: &CsrMatrix<f64>,
        b: &[f64],
        m: impl Fn() -> M,
        p: &SolveParams,
    ) -> [(&'static str, SolveResult<f64>); 4] {
        [
            ("idr", idr(a, b, 4, &m(), p)),
            ("bicgstab", bicgstab(a, b, &m(), p)),
            ("cg", cg(a, b, &m(), p)),
            ("gmres", gmres(a, b, 30, &m(), p)),
        ]
    }

    /// The protocol's abnormal endings, method by method: what the
    /// crate promises a driver about every solver.
    #[test]
    fn every_method_follows_the_one_protocol() {
        let a = laplace_2d::<f64>(12, 12);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let identity = || Identity::new(n);
        let p = SolveParams::default();

        for (name, r) in all_methods(&a, &vec![0.0; n], identity, &p) {
            assert_eq!(r.reason, StopReason::Converged, "{name}: zero rhs");
            assert_eq!(r.iterations, 0, "{name}: zero rhs");
            assert!(r.x.iter().all(|&v| v == 0.0), "{name}: zero rhs");
            assert_eq!(r.final_relres, 0.0, "{name}: zero rhs");
        }

        let mut nan_b = b.clone();
        nan_b[3] = f64::NAN;
        for (name, r) in all_methods(&a, &nan_b, identity, &p) {
            assert_eq!(r.reason, StopReason::NonFinite, "{name}: NaN rhs");
            assert_eq!(r.iterations, 0, "{name}: NaN rhs burned budget");
        }

        let poisoned = || NanAt {
            n,
            at: 3,
            calls: AtomicUsize::new(0),
        };
        for (name, r) in all_methods(&a, &b, poisoned, &p) {
            assert_eq!(r.reason, StopReason::NonFinite, "{name}: NaN from M");
            assert!(r.iterations < 100, "{name}: NaN from M burned budget");
        }

        let cap = SolveParams::default().with_max_iters(7);
        for (name, r) in all_methods(&a, &b, identity, &cap) {
            assert_eq!(r.reason, StopReason::MaxIterations, "{name}: cap");
            // BiCGSTAB spends two products per step
            assert!((7..=8).contains(&r.iterations), "{name}: cap");
        }

        // the graph Laplacian is singular (constant null space) and `b`
        // is not in its range: no residual, recurrence or true, can
        // drop below the null-space component of `b`
        let mut singular = vbatch_sparse::CooMatrix::new(n, n);
        for r in 0..n {
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                if c != r {
                    singular.push(r, c, v);
                    singular.push(r, r, -v);
                }
            }
        }
        let singular = singular.to_csr();
        let floor = SolveParams::default()
            .with_max_iters(400)
            .with_stagnation_window(10);
        for (name, r) in all_methods(&singular, &b, identity, &floor) {
            if name == "gmres" {
                // the robust driver's last resort spends its budget
                assert_eq!(r.reason, StopReason::MaxIterations, "{name}");
                assert_eq!(r.iterations, 400, "{name}");
            } else {
                assert_eq!(r.reason, StopReason::Stagnated, "{name}");
                assert!(r.iterations < 400, "{name}");
            }
            assert!(r.final_relres > 0.5, "{name}: {}", r.final_relres);
        }
    }

    #[test]
    fn defaults_match_paper_protocol() {
        let p = SolveParams::default();
        assert_eq!(p.tol, 1e-6);
        assert_eq!(p.max_iters, 10_000);
        assert!(!p.record_history);
        assert_eq!(p.stagnation_window, 0, "stagnation check is opt-in");
    }

    #[test]
    fn builders() {
        let p = SolveParams::default()
            .with_tol(1e-8)
            .with_max_iters(50)
            .with_history()
            .with_stagnation_window(25);
        assert_eq!(p.tol, 1e-8);
        assert_eq!(p.max_iters, 50);
        assert!(p.record_history);
        assert_eq!(p.stagnation_window, 25);
    }

    #[test]
    fn result_converged_flag() {
        let r = SolveResult::<f64> {
            x: vec![],
            iterations: 3,
            final_relres: 1e-9,
            reason: StopReason::Converged,
            solve_time: Duration::ZERO,
            history: vec![],
        };
        assert!(r.converged());
    }

    #[test]
    fn abnormal_reasons_are_classified() {
        assert!(StopReason::Breakdown.is_abnormal());
        assert!(StopReason::NonFinite.is_abnormal());
        assert!(StopReason::Stagnated.is_abnormal());
        assert!(!StopReason::Converged.is_abnormal());
        assert!(!StopReason::MaxIterations.is_abnormal());
    }

    #[test]
    fn stagnation_guard_trips_after_flat_window() {
        let p = SolveParams::default().with_stagnation_window(3);
        let mut g = StagnationGuard::new(&p);
        assert!(!g.observe(1.0));
        assert!(!g.observe(0.5)); // improving
        assert!(!g.observe(0.5));
        assert!(!g.observe(0.5000001));
        assert!(g.observe(0.4999999999), "3rd flat iteration trips");
        // a real improvement resets the counter
        let mut g = StagnationGuard::new(&p);
        assert!(!g.observe(1.0));
        assert!(!g.observe(1.0));
        assert!(!g.observe(1.0));
        // window would trip here, but improvement arrives first
        let mut g2 = StagnationGuard::new(&p);
        g2.observe(1.0);
        g2.observe(1.0);
        assert!(!g2.observe(0.2));
        assert!(!g2.observe(0.2));
    }

    #[test]
    fn zero_window_never_stagnates() {
        let mut g = StagnationGuard::new(&SolveParams::default());
        for _ in 0..10_000 {
            assert!(!g.observe(1.0));
        }
    }
}
