//! [`BlockSolve`]: one owner for plan → factorize → prepare → apply.
//!
//! The paper's preconditioner is two verbs — setup is one batched LU of
//! the diagonal blocks, apply is one batched triangular solve per
//! Krylov iteration (§III). On the [`Backend`] trait they are three
//! calls over two values that belong together: `factorize` yields a
//! [`FactorizedBatch`], `prepare_apply` derives a [`PreparedApply`]
//! from it, `solve_prepared` takes both — and only a length assert
//! stops a caller pairing factors with another batch's workspace.
//! `BlockSolve` is that pair plus the backend as one value with private
//! fields. Block-Jacobi, block-ILU(0), the SPIKE split (partitions and
//! reduced system) and the serve handle hold one each instead of
//! spelling the protocol out, so the next change to it — borrowed,
//! reusable factor storage — has this one production call site.
//!
//! It adds nothing of its own to either verb: no span, no counter, no
//! allocation; what is observable is what the backend records.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::apply::PreparedApply;
use crate::backend::Backend;
use crate::factors::{BlockStatus, FactorizedBatch};
use crate::plan::BatchPlan;
use crate::stats::ExecStats;
use std::sync::Arc;
use vbatch_core::{MatrixBatch, Scalar};

/// A factorized batch together with the backend that factorized it and
/// the prepared apply built from it; see the module docs.
pub struct BlockSolve<T: Scalar> {
    backend: Arc<dyn Backend<T>>,
    factors: FactorizedBatch<T>,
    /// Built from `factors` in [`BlockSolve::new`] and never replaced.
    prepared: PreparedApply<T>,
}

impl<T: Scalar> BlockSolve<T> {
    /// Factorize `blocks` on `backend` with the kernels `plan` selects
    /// and prepare the apply. Never fails as a whole: singular blocks
    /// degrade per block ([`BlockSolve::statuses`]). Factorization
    /// statistics land in `stats`.
    // setup-time: factor storage, dispatch tables and the scratch slab
    // are allocated behind these two calls, once
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn new(
        backend: Arc<dyn Backend<T>>,
        blocks: MatrixBatch<T>,
        plan: &BatchPlan,
        stats: &mut ExecStats,
    ) -> Self {
        let factors = backend.factorize(blocks, plan, stats);
        let prepared = backend.prepare_apply(&factors);
        BlockSolve {
            backend,
            factors,
            prepared,
        }
    }

    /// Solve every block system of the flat vector `v` in place — the
    /// per-Krylov-iteration verb. Allocation-free on the backends whose
    /// [`Backend::solve_prepared`] is; timing and the workspace
    /// high-water mark land in `stats` as that method records them.
    pub fn apply(&self, v: &mut [T], stats: &mut ExecStats) {
        self.backend
            .solve_prepared(&self.factors, &self.prepared, v, stats);
    }

    /// The factorized batch (per-block solves against single factors,
    /// e.g. block-ILU(0)'s setup-time normalisation, go through it).
    pub fn factors(&self) -> &FactorizedBatch<T> {
        &self.factors
    }

    /// Per-block factorization status.
    pub fn statuses(&self) -> &[BlockStatus] {
        &self.factors.status
    }

    /// The per-block statuses by value, for a holder that is done with
    /// the factors (the serve handle hands them to its caller).
    pub fn into_statuses(self) -> Vec<BlockStatus> {
        self.factors.status
    }

    /// Blocks degraded to a fallback during factorization.
    pub fn fallback_count(&self) -> usize {
        self.factors.fallback_count()
    }

    /// The backend that factorized the batch and applies it.
    pub fn backend(&self) -> &dyn Backend<T> {
        self.backend.as_ref()
    }

    /// Resident apply scratch in scalar elements.
    pub fn workspace_hwm_elems(&self) -> usize {
        self.prepared.workspace_hwm_elems()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::plan::HealthPolicy;
    use crate::{CpuSequential, CpuSimd};
    use vbatch_core::BatchLayout;
    use vbatch_rt::{testgen, SmallRng};

    /// `BlockSolve` is the raw calls and nothing else: same statuses,
    /// same bits over two applies, same counters — on both backends.
    #[test]
    fn block_solve_equals_the_raw_protocol_bitwise_on_every_backend() {
        // an interleavable class, a ragged tail, one singular block
        let sizes = [6usize, 6, 6, 6, 6, 20, 3, 33];
        let raw = testgen::dd_batch_of(&mut SmallRng::seed_from_u64(17), &sizes);
        let mut batch = MatrixBatch::<f64>::zeros(&sizes);
        for i in 0..batch.len() {
            batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
        }
        for c in 0..6 {
            let b = batch.block_mut(2);
            b[c * 6 + 4] = b[c * 6 + 1];
        }
        let flat: Vec<f64> = (0..86).map(|i| (i % 9) as f64 / 2.0 - 2.0).collect();
        let layout = BatchLayout::Interleaved { class_capacity: 2 };
        let plan = BatchPlan::auto_with_layout::<f64>(&sizes, layout)
            .with_health(HealthPolicy::guarded::<f64>());

        let backends: [Arc<dyn Backend<f64>>; 2] = [Arc::new(CpuSequential), Arc::new(CpuSimd)];
        for backend in backends {
            let name = backend.name();
            let mut raw_stats = ExecStats::new();
            let factors = backend.factorize(batch.clone(), &plan, &mut raw_stats);
            let prepared = backend.prepare_apply(&factors);
            let mut want = [flat.clone(), Vec::new()];
            backend.solve_prepared(&factors, &prepared, &mut want[0], &mut raw_stats);
            want[1] = want[0].clone();
            backend.solve_prepared(&factors, &prepared, &mut want[1], &mut raw_stats);

            let mut stats = ExecStats::new();
            let solve = BlockSolve::new(backend, batch.clone(), &plan, &mut stats);
            assert_eq!(solve.statuses(), &factors.status[..], "{name}");
            assert_eq!(solve.fallback_count(), 1, "{name}");
            assert_eq!(solve.workspace_hwm_elems(), prepared.workspace_hwm_elems());
            assert_eq!(solve.backend().name(), name);
            let mut got = flat.clone();
            for pass in want {
                solve.apply(&mut got, &mut stats);
                assert_eq!(got, pass, "{name}");
            }
            assert_eq!((stats.applies, stats.flops), (2, raw_stats.flops), "{name}");
            assert_eq!(stats.kernel_histogram(), raw_stats.kernel_histogram());
            assert_eq!(stats.workspace_hwm_elems, raw_stats.workspace_hwm_elems);
            assert_eq!(solve.into_statuses(), factors.status, "{name}");
        }
    }
}
