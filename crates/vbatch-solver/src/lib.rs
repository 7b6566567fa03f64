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
//! [`IdrSolver`] is the one block-preconditioned IDR(s) driver: it
//! builds any block preconditioner on an explicit `vbatch-exec`
//! [`vbatch_exec::Backend`] once and solves with it as often as asked.
//!
//! Every solver distinguishes abnormal endings — recurrence
//! [`StopReason::Breakdown`] (a division by exactly zero),
//! [`StopReason::NonFinite`] residuals or recurrence scalars from
//! faulted data, and optional [`StopReason::Stagnated`] detection — and
//! [`IdrSolver::solve_robust`] reacts to them with a fixed
//! restart-then-GMRES-fallback policy.

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
pub use driver::{IdrSolver, RobustSolve};
pub use gmres::gmres;
pub use idr::{idr, idr_smoothed, idr_with_workspace};
pub use spike::{SpikeSolve, SpikeSolver};
pub use workspace::KrylovWorkspace;
