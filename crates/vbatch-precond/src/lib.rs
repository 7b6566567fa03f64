//! # vbatch-precond
//!
//! The preconditioner ecosystem of the ICPP'17 paper: scalar Jacobi
//! ([`jacobi`]), **block-Jacobi** ([`block_jacobi`]) and
//! **block-ILU(0)** ([`block_ilu`]) built on the variable-size batched
//! factorizations of `vbatch-core` — small-size LU, Gauss-Huard,
//! Gauss-Huard-T, explicit Gauss-Jordan inversion, and the Cholesky
//! extension — applied per Krylov iteration through the
//! [`traits::Preconditioner`] / [`traits::BlockPreconditioner`]
//! interface, with setup configured by one unified
//! [`options::PrecondOptions`] builder.

pub mod block_ilu;
pub mod block_jacobi;
pub mod jacobi;
pub mod options;
pub mod traits;

pub use block_ilu::BlockIlu0;
pub use block_jacobi::BlockJacobi;
pub use jacobi::{Jacobi, JacobiError};
pub use options::PrecondOptions;
pub use traits::{BlockPreconditioner, Identity, Preconditioner, SetupReport};
