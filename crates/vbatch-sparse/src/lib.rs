//! # vbatch-sparse
//!
//! Sparse substrate for the block-Jacobi pipeline of the ICPP'17 paper:
//! CSR/COO storage ([`csr`], [`coo`]), SpMV and BLAS-1 helpers
//! ([`mod@spmv`]), Matrix Market I/O ([`mm_io`]), reverse Cuthill-McKee
//! reordering ([`reorder`]), **supervariable blocking** ([`blocking`],
//! §II-A of the paper), diagonal-block extraction ([`extract`],
//! §III-C), and the synthetic 48-problem Table-I test suite plus its
//! underlying generators ([`gen`]).

pub mod blocking;
pub mod coo;
pub mod csr;
pub mod extract;
pub mod gen;
pub mod mm_io;
pub mod pattern;
pub mod reorder;
pub mod spike;
pub mod spmv;
pub mod stats;

pub use blocking::{find_supervariables, supervariable_blocking, BlockPartition};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use extract::{block_coverage, extract_diag_blocks};
pub use gen::suite::{by_name, table1_suite, ProblemClass, SuiteProblem};
pub use mm_io::{
    read_matrix_market, read_matrix_market_str, write_matrix_market, write_matrix_market_str,
    MmError,
};
pub use pattern::{BlockPattern, LevelSchedule, TriKind};
pub use reorder::{is_permutation, reverse_cuthill_mckee};
pub use spike::{extract_spike_blocks, SpikeBlocks, SpikeError, SpikePartition};
pub use spmv::{axpy, dot, nrm2, residual, scal, spmv, spmv_alloc, xpby};
pub use stats::{matrix_stats, partition_stats, row_length_histogram, MatrixStats, PartitionStats};
