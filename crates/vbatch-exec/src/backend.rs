//! The [`Backend`] trait: one interface over batch extraction,
//! factorization, solve, inversion and GEMV application.

use crate::apply::PreparedApply;
use crate::factors::{BlockStatus, FactorizedBatch};
use crate::plan::BatchPlan;
use crate::stats::ExecStats;
use crate::tri::BlockTriangular;
use vbatch_core::{MatrixBatch, Scalar, VectorBatch};
use vbatch_sparse::{BlockPartition, CsrMatrix, LevelSchedule};

/// An executor for variable-size batched work. Implementations:
/// [`crate::CpuSequential`] and [`crate::CpuSimd`], one host kernel set
/// on the calling thread or on the pool. All methods take an
/// [`ExecStats`] sink; every backend fills in the kernel and layout
/// histograms, flops and phase timings the same way, so consumers can
/// compare runs across backends.
pub trait Backend<T: Scalar>: Send + Sync {
    /// Short display name ("cpu-seq", "cpu-simd").
    fn name(&self) -> &'static str;

    /// Extract the diagonal blocks described by `part` from `a`.
    fn extract_blocks(
        &self,
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        stats: &mut ExecStats,
    ) -> MatrixBatch<T>;

    /// Factorize every block of `blocks` with the kernels selected by
    /// `plan`. Never fails as a whole: singular blocks degrade to the
    /// scalar-Jacobi fallback and are reported per block in the result's
    /// [`BlockStatus`] vector; `stats`' kernel histogram counts only the
    /// blocks that kept their kernel's factors.
    fn factorize(
        &self,
        blocks: MatrixBatch<T>,
        plan: &BatchPlan,
        stats: &mut ExecStats,
    ) -> FactorizedBatch<T>;

    /// Solve every block system in place: `rhs[i] := A_i^{-1} rhs[i]` —
    /// the one-shot form: [`Backend::prepare_apply`] + the prepared
    /// apply path with the preparation paid per call (timed as
    /// [`crate::Phase::Solve`]). No production caller: every holder
    /// goes through a [`crate::BlockSolve`], which owns the factors and
    /// the [`PreparedApply`] built from them.
    fn solve(&self, factors: &FactorizedBatch<T>, rhs: &mut VectorBatch<T>, stats: &mut ExecStats);

    /// Precompute the apply dispatch (unit order, flat-vector offsets,
    /// scratch slab) for repeated [`Backend::solve_prepared`] calls
    /// against `factors`. Backend-independent by default.
    fn prepare_apply(&self, factors: &FactorizedBatch<T>) -> PreparedApply<T> {
        PreparedApply::new(factors)
    }

    /// Solve every block system of the flat vector `v` in place through
    /// a prepared apply workspace — the steady-state (per-Krylov-
    /// iteration) form, run without heap allocations and booked as
    /// [`crate::Phase::Apply`]. The workspace high-water mark lands in
    /// [`ExecStats::record_apply`].
    fn solve_prepared(
        &self,
        factors: &FactorizedBatch<T>,
        prepared: &PreparedApply<T>,
        v: &mut [T],
        stats: &mut ExecStats,
    );

    /// Accumulate one global block triangular sweep into the flat
    /// vector: `v_i := v_i − Σ_j T_ij v_j` over the stored blocks of
    /// `tri`, scheduled by `sched` — the off-diagonal half of a
    /// block-ILU(0) apply. Results are bitwise identical across
    /// backends and to [`BlockTriangular::sweep_sequential`]; backends
    /// differ only in how independent rows of one level are executed.
    /// Timing lands in [`crate::Phase::Sweep`]. Allocation-free where
    /// the backend sweeps on the calling thread.
    fn sweep_triangular(
        &self,
        tri: &BlockTriangular<T>,
        sched: &LevelSchedule,
        v: &mut [T],
        stats: &mut ExecStats,
    );

    /// Explicitly invert every block, with the same per-block fallback
    /// semantics as [`Backend::factorize`] (a failed block's "inverse"
    /// is the scalar-Jacobi diagonal matrix).
    fn invert(
        &self,
        blocks: &MatrixBatch<T>,
        stats: &mut ExecStats,
    ) -> (MatrixBatch<T>, Vec<BlockStatus>);

    /// Batched GEMV: `y[i] := blocks[i] * x[i]`.
    fn apply_gemv(
        &self,
        blocks: &MatrixBatch<T>,
        x: &VectorBatch<T>,
        y: &mut VectorBatch<T>,
        stats: &mut ExecStats,
    );
}
