//! # vbatch-solver
//!
//! Krylov solvers for the block-Jacobi evaluation of the ICPP'17 paper:
//! **IDR(s)** with biorthogonalization ([`idr()`] — the paper drives
//! IDR(4)), plus BiCGSTAB ([`bicgstab()`]) and CG ([`cg()`]) as the
//! independent oracles IDR is cross-checked against and restarted
//! GMRES ([`gmres()`]) as the robust driver's fallback. All solvers
//! take any `vbatch_precond::Preconditioner` and are recurrences over
//! one stopping protocol ([`control`]: the paper's relative residual
//! `1e-6` and cap 10,000, right-hand-side triage, stagnation guard,
//! true final residual), reporting iterations, timing and optional
//! histories.
//! The [`driver`] module adds backend-parameterized entry points that
//! build any block preconditioner on an explicit `vbatch-exec`
//! [`vbatch_exec::Backend`].
//!
//! Every solver distinguishes abnormal endings — recurrence
//! [`StopReason::Breakdown`] (a division by exactly zero),
//! [`StopReason::NonFinite`] residuals or recurrence scalars from
//! faulted data, and optional [`StopReason::Stagnated`] detection — and
//! [`driver::idr_precond_robust`] reacts to them with a
//! restart-then-GMRES-fallback policy ([`driver::RobustPolicy`]).

pub mod bicgstab;
pub mod cg;
pub mod control;
pub mod driver;
mod fused;
pub mod gmres;
pub mod idr;
pub mod spike;
pub mod workspace;

pub use bicgstab::bicgstab;
pub use cg::cg;
pub use control::{SolveParams, SolveResult, StagnationGuard, StopReason};
pub use driver::{
    idr_precond, idr_precond_kind, idr_precond_robust, IdrSolver, PrecondSolve, RobustPolicy,
    RobustSolve,
};
pub use gmres::gmres;
pub use idr::{idr, idr_smoothed, idr_with_workspace};
pub use spike::{SpikeSolve, SpikeSolver};
pub use workspace::KrylovWorkspace;
