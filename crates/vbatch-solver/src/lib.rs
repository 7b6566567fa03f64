//! # vbatch-solver
//!
//! Krylov solvers for the block-Jacobi evaluation of the ICPP'17 paper:
//! **IDR(s)** with biorthogonalization ([`idr()`] — the paper drives
//! IDR(4)), plus BiCGSTAB ([`bicgstab()`]), CG ([`cg()`]) and restarted
//! GMRES ([`gmres()`]) as cross-checks. All solvers take any
//! `vbatch_precond::Preconditioner`, use the paper's stopping protocol
//! ([`control`]: relative residual `1e-6`, cap 10,000) and report
//! iterations, true final residual, timing and optional histories.
//! The [`driver`] module adds backend-parameterized entry points that
//! build any block preconditioner on an explicit `vbatch-exec`
//! [`vbatch_exec::Backend`].
//!
//! Every solver distinguishes abnormal endings — recurrence
//! [`StopReason::Breakdown`], [`StopReason::NonFinite`] residuals from
//! faulted data, and optional [`StopReason::Stagnated`] detection — and
//! [`driver::idr_precond_robust`] reacts to them with a
//! restart-then-GMRES-fallback policy ([`driver::RobustPolicy`]).

pub mod bicgstab;
pub mod cg;
pub mod control;
pub mod driver;
pub mod gmres;
pub mod idr;
pub mod spike;
pub mod workspace;

pub use bicgstab::{bicgstab, bicgstab_with_workspace};
pub use cg::{cg, cg_with_workspace};
pub use control::{SolveParams, SolveResult, StagnationGuard, StopReason};
pub use driver::{
    idr_precond, idr_precond_kind, idr_precond_robust, IdrSolver, PrecondSolve, RobustPolicy,
    RobustSolve,
};
pub use gmres::{gmres, gmres_with_workspace};
pub use idr::{idr, idr_smoothed, idr_smoothed_with_workspace, idr_with_workspace};
pub use spike::{SpikeSolve, SpikeSolver};
pub use workspace::KrylovWorkspace;
