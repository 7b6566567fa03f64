//! # vbatch-lu
//!
//! A Rust reproduction of *"Variable-Size Batched LU for Small Matrices
//! and Its Integration into Block-Jacobi Preconditioning"* (Anzt,
//! Dongarra, Flegar, Quintana-Ortí — ICPP 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — variable-size batched dense kernels (LU with implicit
//!   pivoting, triangular solves, Gauss-Huard, Gauss-Jordan, Cholesky);
//! * [`simt`] — the warp-lockstep GPU simulator + P100 cost model that
//!   stands in for the paper's CUDA layer: the kernel figures' timings
//!   come from its estimators, and no execution path runs on it;
//! * [`sparse`] — CSR, supervariable blocking, extraction, generators;
//! * [`exec`] — the execution layer: the two [`exec::Backend`]
//!   implementations (one host kernel set on the calling thread or on
//!   the thread pool) behind a [`exec::BatchPlan`] that picks kernels
//!   per block using the paper's crossovers, and [`exec::BlockSolve`],
//!   the factorized batch every preconditioner holds;
//! * [`precond`] — scalar and block-Jacobi preconditioners;
//! * [`solver`] — IDR(s), BiCGSTAB, CG, GMRES(m).
//!
//! ```
//! use vbatch_lu::prelude::*;
//!
//! // factorize a small block and solve
//! let a = DenseMat::from_row_major(2, 2, &[4.0, 1.0, 1.0, 3.0]);
//! let f = getrf(&a, PivotStrategy::Implicit).unwrap();
//! let x = f.solve(&[5.0, 4.0]);
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! ```

pub use vbatch_core as core;
pub use vbatch_exec as exec;
pub use vbatch_precond as precond;
pub use vbatch_simt as simt;
pub use vbatch_solver as solver;
pub use vbatch_sparse as sparse;

/// One-stop imports for applications.
pub mod prelude {
    pub use vbatch_core::{
        condest1, getrf, getrf_blocked, gh_factorize, gje_invert, potrf, solve_system, DenseMat,
        GhLayout, LuFactors, MatrixBatch, Permutation, PivotStrategy, Scalar, VectorBatch,
    };
    pub use vbatch_exec::{
        Backend, BatchPlan, BlockSolve, BlockStatus, CpuSequential, CpuSimd, ExecStats,
        KernelChoice, PlanMethod,
    };
    pub use vbatch_precond::{
        BlockJacobi, BlockPreconditioner, Identity, Jacobi, PrecondOptions, Preconditioner,
    };
    pub use vbatch_simt::{
        estimate_factor, estimate_solve, DeviceModel, FactorKernel, SolveKernel,
    };
    pub use vbatch_solver::{
        bicgstab, cg, gmres, idr, idr_smoothed, SolveParams, SolveResult, StopReason,
    };
    pub use vbatch_sparse::{
        extract_diag_blocks, reverse_cuthill_mckee, spmv_alloc, supervariable_blocking,
        table1_suite, BlockPartition, CooMatrix, CsrMatrix, SuiteProblem,
    };
}
