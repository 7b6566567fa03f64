//! # vbatch-simt
//!
//! A warp-lockstep SIMT **functional simulator with a cost model** — the
//! substrate that stands in for the CUDA/P100 layer of the ICPP'17 paper
//! (see DESIGN.md for the substitution argument).
//!
//! Kernels are written against a warp API ([`warp::WarpCtx`]): 32-lane
//! register vectors, shuffles, butterfly reductions, predication masks,
//! global memory with **coalescing analysis** ([`memory`]) and shared
//! memory with **bank-conflict accounting** ([`shared`]). Each kernel
//! really executes — its numerical output is verified against the native
//! CPU kernels of `vbatch-core` — while every warp instruction and
//! memory transaction is charged to a [`cost::CostCounter`]. The
//! [`device::DeviceModel`] (calibrated to a Tesla P100) converts the
//! counters into time and GFLOPS estimates, and [`launch`] packages the
//! whole thing into the one-call API the figure benches use.
//!
//! Implemented kernels ([`kernels`]): the paper's register-resident
//! small-size LU with implicit pivoting, Gauss-Huard and Gauss-Huard-T,
//! a cuBLAS-like memory-resident baseline, the four matching triangular
//! solves, and the two diagonal-block extraction strategies of §III-C.

pub mod cost;
pub mod device;
pub mod kernels;
pub mod launch;
pub mod memory;
pub mod shared;
pub mod warp;

pub use cost::{CostCounter, CostTable, InstrClass};
pub use device::{Bound, DeviceModel, TimeEstimate};
pub use kernels::extract::{ExtractBatch, ExtractStrategy};
pub use kernels::gauss_huard::{GhBatch, GhStorage};
pub use kernels::gemv::GemvBatch;
pub use kernels::getrf::GetrfSmallSize;
pub use kernels::large::GetrfLarge;
pub use kernels::multi::{GetrfMultiPerWarp, MultiTrsv};
pub use kernels::trsv::{GhSolveBatch, LuTrsvBatch};
pub use kernels::vendor::{VendorGetrs, VendorLu};
pub use launch::{
    estimate_factor, estimate_solve, factor_nominal_flops, solve_nominal_flops, FactorKernel,
    LaunchReport, SolveKernel,
};
pub use memory::{GlobalMem, GlobalMemU32, WARP_SIZE};
pub use shared::SharedMem;
pub use warp::{mask_below, mask_lane, Mask, Regs, WarpCtx, FULL_MASK};
