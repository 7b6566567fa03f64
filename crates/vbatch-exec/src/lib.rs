//! # vbatch-exec
//!
//! The batch *execution layer*: every consumer of the variable-size
//! batched kernels (block-Jacobi setup/apply, the benchmark figure
//! bins, the solvers) goes through three abstractions defined here
//! instead of matching on kernels directly:
//!
//! * [`BatchPlan`] — the *planner*: the table of a batch's size
//!   classes, one kernel family and one layout per class. The family
//!   follows the paper's P100 crossovers — Gauss-Huard below ≈16 (SP) /
//!   ≈23 (DP) unless a class of order ≤ 16 has ≥ 2 members, else LU;
//!   every LU class with enough members is interleaved, at any order.
//!   The paper's LU launch shapes are one host kernel; only the
//!   benchmark's launch estimator tells them apart.
//! * [`Backend`] — the *executor*. One interface over
//!   [`vbatch_core::MatrixBatch`]es, with two implementations that run
//!   one host kernel set: [`CpuSequential`] on the calling thread and
//!   [`CpuSimd`] on the thread pool (see [`cpu`]).
//! * [`BlockSolve`] — the *owner*. A plan run on a backend: the
//!   factorized batch and the prepared apply built from it as one
//!   value with two verbs, `new` (setup) and `apply` (per Krylov
//!   iteration). Every preconditioner and the serve handle hold one
//!   rather than calling the backend's factorize / prepare / solve
//!   methods themselves.
//!
//! Factorization never aborts on the first singular block: each block
//! carries its own [`BlockStatus`] — which kernel ran, the triaged
//! [`BlockHealth`], an optional condition estimate, and the recovery
//! escalation chain — and singular blocks degrade through a
//! scalar-Jacobi (diagonal) fallback so the preconditioner stays
//! usable. With [`HealthPolicy::Guarded`], ill-conditioned blocks are
//! additionally equilibrated and refactorized ([`health`]), and the
//! [`fault`] module can corrupt batches deterministically to exercise
//! every one of these paths. The statuses are the one record of what
//! happened to each block; [`ExecStats`] threads what the backend ran
//! and measured — kernel and layout histograms, flop counts, per-phase
//! timings — through every backend.

pub mod apply;
pub mod backend;
pub mod block_solve;
pub mod cpu;
pub mod factors;
pub mod fault;
pub mod health;
pub mod plan;
pub mod serve;
pub mod stats;
pub mod tri;

pub use apply::PreparedApply;
pub use backend::Backend;
pub use block_solve::BlockSolve;
pub use cpu::{CpuSequential, CpuSimd};
pub use factors::{
    refine_once, BlockFactor, BlockHealth, BlockStatus, ClassSlab, FactorizedBatch,
    InterleavedLuClass, RecoveryStep,
};
pub use fault::{apply_fault, expected_health, inject_batch, inject_rhs};
pub use plan::{
    BatchPlan, ClassLayout, HealthPolicy, KernelChoice, PlanMethod, PrecisionPolicy, SizeClass,
};
pub use serve::SizeClassHandle;
pub use stats::{ExecStats, Phase};
pub use tri::BlockTriangular;
pub use vbatch_rt::fault::{FaultClass, FaultPlan};
