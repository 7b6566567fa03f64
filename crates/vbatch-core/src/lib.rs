//! # vbatch-core
//!
//! Variable-size batched dense kernels for small matrices (order ≤ 32 in
//! the paper's target scenario, arbitrary order here), reproducing the
//! numerical layer of
//!
//! > Anzt, Dongarra, Flegar, Quintana-Ortí — *"Variable-Size Batched LU
//! > for Small Matrices and Its Integration into Block-Jacobi
//! > Preconditioning"*, ICPP 2017.
//!
//! The crate provides:
//!
//! * [`lu`] — LU factorization with **explicit** (Fig. 1 top) and the
//!   paper's **implicit** partial pivoting (Fig. 1 bottom);
//! * [`trsv`] — the eager (AXPY) triangular solves of Fig. 2 and the
//!   permuted `getrs`-style combined solve, on one [`LuView`] of a
//!   factor in a block's own storage or in an interleaved class slot;
//! * [`gauss_huard`] — the Gauss-Huard baseline with column pivoting and
//!   its transposed-storage variant (GH-T);
//! * [`gje`] — Gauss-Jordan explicit inversion (the inversion-based
//!   block-Jacobi alternative of ref.\[4\]);
//! * [`cholesky`] — the paper's announced future-work extension for SPD
//!   blocks;
//! * [`batch`] — variable-size batch containers; running a kernel over
//!   every block of one is `vbatch-exec`'s `Backend`.
//!
//! All kernels are generic over [`scalar::Scalar`] (`f32`/`f64`), the
//! two precisions evaluated in the paper.

pub mod batch;
pub mod blockops;
pub mod cholesky;
pub mod condest;
pub mod dense;
pub mod error;
pub mod gauss_huard;
pub mod gje;
pub mod interleaved;
pub mod interleaved_simd;
pub mod lu;
pub mod perm;
pub mod qr;
pub mod scalar;
pub mod trsv;
pub mod widen;

pub use batch::{MatrixBatch, VectorBatch};
pub use blockops::{gemm_neg_acc, gemv, gemv_neg_acc, trsm_right_lu_inplace};
pub use cholesky::{make_spd, potrf, CholeskyFactors};
pub use condest::{apply_equilibration, condest1, equilibrate, inverse_norm1_est, norm1};
pub use dense::DenseMat;
pub use error::{check_finite, FactorError, FactorResult};
pub use gauss_huard::{gh_factorize, GhFactors, GhLayout};
pub use gje::gje_invert;
pub use interleaved::{BatchLayout, InterleavedClass, DEFAULT_CLASS_CAPACITY};
pub use interleaved_simd::{
    getrf_interleaved_class_simd, getrf_interleaved_class_simd_scratch,
    getrf_interleaved_class_simd_width, lu_solve_interleaved_class_scratch_simd,
    lu_solve_interleaved_class_scratch_simd_width, LaneGetrfScratch, SUPPORTED_WIDTHS,
};
pub use lu::blocked::getrf_blocked;
pub use lu::{getrf, getrf_inplace, solve_system, LuFactors, PivotStrategy};
pub use perm::Permutation;
pub use qr::{geqp3, QrFactors};
pub use scalar::Scalar;
pub use trsv::{lu_solve_inplace, trsv_lower_unit, trsv_upper, LuView};
pub use widen::{
    narrow_slice, residual_into, Storage, StoragePrecision, Stored, StoredGh, StoredVec,
};
