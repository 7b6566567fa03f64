//! Reusable per-size-class batch-solve handles for the long-running
//! service runtime (`vbatch-serve`).
//!
//! A service batcher flushes one size class over and over with varying
//! member counts. [`SizeClassHandle`] hoists what survives a flush into
//! one long-lived object:
//!
//! * the flat RHS staging vector, recycled in place;
//! * one cumulative [`ExecStats`] sink, so service metrics aggregate
//!   across flushes for free.
//!
//! A flush is the preconditioner's two verbs: one [`BlockSolve`] built
//! from the staged matrices under the flush's plan, applied once to the
//! staged right-hand sides. The plan is one size class taken at the
//! handle's capacity ([`BatchPlan::uniform_at_capacity`], O(1)), so it
//! is built per flush rather than cached.
//!
//! What a flush allocates: the staged `MatrixBatch` (`count · n²`
//! values and its two index vectors — `Backend::factorize` takes it by
//! value, so it cannot be recycled), the factor store built from it,
//! the prepared apply and the returned statuses. Under the service's
//! engine (blocked layout, guarded triage) the factor store is one
//! record per member — its factor values and its pivots, beside its
//! status — the staged batch staying readable for the triage pass and
//! dropped after it. The per-block LU runs on one scratch per
//! factorize call and the condition estimate reads each record where
//! it lies, on one scratch per triage pass, so a member adds its record
//! and a share of the per-member vectors' growth (a warm flush of 32
//! order-16 members: 92 allocations, `vbatch-solver/tests/
//! zero_alloc.rs`); under an
//! interleaved layout with health `Off` and native storage a clean
//! member is its slot of the class slab, which the host backends build
//! *in* the staged value array, adding only pivots, the member index
//! and one staging chunk per worker thread; any other interleaved flush
//! gathers into one slab. Keeping the factor store across flushes needs
//! a `factorize` that borrows its input and writes into a reusable
//! output (ROADMAP item 3(a)) — this is where that `BlockSolve` would
//! live.
//!
//! Isolation contract: with the blocked layout every block is
//! factorized and solved independently, so a member's result is a pure
//! function of its own `(A, b)` — co-batched neighbours (including
//! poisoned ones) can never perturb it bitwise. The interleaved/SIMD
//! layouts uphold the same contract through the lane-differential
//! golden suites of PRs 2/7. `vbatch-serve`'s chaos suite asserts this
//! end to end.

use crate::backend::Backend;
use crate::block_solve::BlockSolve;
use crate::factors::BlockStatus;
use crate::plan::{BatchPlan, HealthPolicy, PrecisionPolicy};
use crate::stats::ExecStats;
use std::sync::Arc;
use vbatch_core::{BatchLayout, MatrixBatch, Scalar};

/// A reusable solve handle for one size class (block order `n`) with a
/// bounded member count, owned by one shard worker — not `Sync`-shared;
/// each shard keeps its own.
pub struct SizeClassHandle<T: Scalar> {
    n: usize,
    capacity: usize,
    backend: Arc<dyn Backend<T>>,
    health: HealthPolicy,
    layout: BatchLayout,
    precision: PrecisionPolicy,
    /// Uniform size list at full capacity; flushes borrow a prefix.
    sizes: Vec<usize>,
    /// Recycled flat RHS staging (`count · n` elements per flush).
    rhs: Vec<T>,
    /// Cumulative statistics across every flush of this handle.
    stats: ExecStats,
    flushes: u64,
}

impl<T: Scalar> SizeClassHandle<T> {
    /// A handle for systems of order `n`, batching at most `capacity`
    /// members per flush.
    pub fn new(
        n: usize,
        capacity: usize,
        backend: Arc<dyn Backend<T>>,
        health: HealthPolicy,
        layout: BatchLayout,
        precision: PrecisionPolicy,
    ) -> Self {
        assert!(n >= 1, "block order must be at least 1");
        assert!(capacity >= 1, "class capacity must be at least 1");
        SizeClassHandle {
            n,
            capacity,
            backend,
            health,
            layout,
            precision,
            sizes: vec![n; capacity],
            rhs: Vec::new(),
            stats: ExecStats::new(),
            flushes: 0,
        }
    }

    /// Block order of this class.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum members per flush.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Flushes executed through this handle.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Cumulative execution statistics across all flushes.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Solve `A_i x_i = b_i` for a batch of systems of this class:
    /// `blocks[i]` is the column-major `n x n` matrix, `rhs[i]` (length
    /// `n`) is overwritten with the solution. Returns one
    /// [`BlockStatus`] per member describing the kernel that ran, the
    /// triaged health, and any degradation — the raw material of the
    /// service's typed outcomes. Never panics on singular or non-finite
    /// members; they degrade per block exactly like the preconditioner
    /// setup path.
    pub fn solve_batch(&mut self, blocks: &[&[T]], rhs: &mut [&mut [T]]) -> Vec<BlockStatus> {
        let count = blocks.len();
        assert_eq!(count, rhs.len(), "one RHS per block");
        let n = self.n;
        // Kernel and layout pinned at full capacity so a solo flush and
        // a full flush run bitwise-identical arithmetic; an empty or
        // over-capacity flush panics here. Planned before the batch is
        // staged: allocated after it, the plan's small block sits above
        // the batch in the heap and outlives it, which measured about
        // 5 % on the ledger's `serve_burst`.
        let plan = BatchPlan::uniform_at_capacity::<T>(n, count, self.capacity, self.layout)
            .with_health(self.health)
            .with_precision(self.precision);

        let mut batch = MatrixBatch::zeros(&self.sizes[..count]);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.len(), n * n, "block {i}: expected order {n}");
            batch.block_mut(i).copy_from_slice(b);
        }
        self.rhs.clear();
        for (i, r) in rhs.iter().enumerate() {
            assert_eq!(r.len(), n, "rhs {i}: expected length {n}");
            self.rhs.extend_from_slice(r);
        }

        let solve = BlockSolve::new(self.backend.clone(), batch, &plan, &mut self.stats);
        solve.apply(&mut self.rhs, &mut self.stats);

        for (r, x) in rhs.iter_mut().zip(self.rhs.chunks_exact(n)) {
            r.copy_from_slice(x);
        }
        self.flushes += 1;
        solve.statuses().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSequential;
    use crate::factors::BlockHealth;

    fn dd_block(n: usize, salt: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                let h = (i * 131 + j * 37 + salt * 17 + 3) % 1024;
                a[j * n + i] = h as f64 / 512.0 - 1.0 + if i == j { (n + 2) as f64 } else { 0.0 };
            }
        }
        a
    }

    fn handle(n: usize, capacity: usize) -> SizeClassHandle<f64> {
        SizeClassHandle::new(
            n,
            capacity,
            Arc::new(CpuSequential),
            HealthPolicy::guarded::<f64>(),
            BatchLayout::Blocked,
            PrecisionPolicy::FullDp,
        )
    }

    #[test]
    fn solve_batch_matches_solo_solves_bitwise() {
        let n = 5;
        let blocks: Vec<Vec<f64>> = (0..7).map(|s| dd_block(n, s)).collect();
        let rhs0: Vec<Vec<f64>> = (0..7)
            .map(|s| (0..n).map(|i| 1.0 + ((s + i) % 4) as f64).collect())
            .collect();

        // co-batched flush
        let mut h = handle(n, 8);
        let mut co: Vec<Vec<f64>> = rhs0.clone();
        let block_refs: Vec<&[f64]> = blocks.iter().map(|b| b.as_slice()).collect();
        let mut co_refs: Vec<&mut [f64]> = co.iter_mut().map(|r| r.as_mut_slice()).collect();
        let status = h.solve_batch(&block_refs, &mut co_refs);
        assert_eq!(status.len(), 7);
        assert!(status.iter().all(|s| s.health == BlockHealth::Healthy));

        // each member solo, through a fresh handle
        for i in 0..7 {
            let mut solo = handle(n, 8);
            let mut r = rhs0[i].clone();
            let mut refs: Vec<&mut [f64]> = vec![r.as_mut_slice()];
            solo.solve_batch(&[blocks[i].as_slice()], &mut refs);
            for (a, b) in r.iter().zip(&co[i]) {
                assert_eq!(a.to_bits(), b.to_bits(), "member {i} differs from solo run");
            }
        }
    }

    /// Under a storage-lowering policy every member of a
    /// well-conditioned class is factorized in single precision and
    /// refined back to working accuracy: normwise backward error
    /// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)` within `1e-10`.
    #[test]
    fn mixed_precision_flush_refines_to_working_accuracy() {
        use vbatch_core::{gemv_neg_acc, DenseMat, StoragePrecision};
        let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for n in 4..=8 {
            let mut h = SizeClassHandle::new(
                n,
                8,
                Arc::new(CpuSequential),
                HealthPolicy::guarded::<f64>(),
                BatchLayout::Blocked,
                PrecisionPolicy::MixedPromote,
            );
            let blocks: Vec<Vec<f64>> = (0..3).map(|s| dd_block(n, s + n)).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut x = vec![b.clone(); 3];
            let block_refs: Vec<&[f64]> = blocks.iter().map(|a| a.as_slice()).collect();
            let mut x_refs: Vec<&mut [f64]> = x.iter_mut().map(|r| r.as_mut_slice()).collect();
            let status = h.solve_batch(&block_refs, &mut x_refs);
            for ((a, x), s) in blocks.iter().zip(&x).zip(&status) {
                assert_eq!(s.health, BlockHealth::Healthy, "order {n}");
                assert_eq!(s.precision, StoragePrecision::Lower, "order {n}");
                let mut r = b.clone();
                gemv_neg_acc(n, n, a, x, &mut r);
                let norm_a = DenseMat::from_col_major(n, n, a).norm_inf();
                let berr = inf(&r) / (norm_a * inf(x) + inf(&b));
                assert!(berr <= 1e-10, "order {n}: backward error {berr:e}");
            }
        }
    }

    #[test]
    fn handle_accumulates_stats_across_flushes() {
        let n = 4;
        let mut h = handle(n, 16);
        for round in 0..3 {
            let blocks: Vec<Vec<f64>> = (0..5).map(|s| dd_block(n, s + round)).collect();
            let mut rhs: Vec<Vec<f64>> = (0..5).map(|_| vec![1.0; n]).collect();
            let block_refs: Vec<&[f64]> = blocks.iter().map(|b| b.as_slice()).collect();
            let mut rhs_refs: Vec<&mut [f64]> = rhs.iter_mut().map(|r| r.as_mut_slice()).collect();
            let status = h.solve_batch(&block_refs, &mut rhs_refs);
            assert_eq!(status.len(), 5);
        }
        assert_eq!(h.flushes(), 3);
        // stats accumulated over all 15 members
        let total: u64 = h.stats().kernel_histogram().values().sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn poisoned_members_degrade_without_perturbing_neighbours() {
        let n = 4;
        let good = dd_block(n, 0);
        let mut rhs_good = vec![1.0; n];
        // solo reference for the healthy member
        {
            let mut h = handle(n, 4);
            let mut refs: Vec<&mut [f64]> = vec![rhs_good.as_mut_slice()];
            h.solve_batch(&[good.as_slice()], &mut refs);
        }
        // co-batch with a singular and a NaN neighbour
        let zero_row = {
            let mut b = dd_block(n, 1);
            for j in 0..n {
                b[j * n + 2] = 0.0;
            }
            b
        };
        let nan_block = {
            let mut b = dd_block(n, 2);
            b[1] = f64::NAN;
            b
        };
        let mut h = handle(n, 4);
        let mut r0 = vec![1.0; n];
        let mut r1 = vec![1.0; n];
        let mut r2 = vec![1.0; n];
        let mut refs: Vec<&mut [f64]> =
            vec![r0.as_mut_slice(), r1.as_mut_slice(), r2.as_mut_slice()];
        let status = h.solve_batch(
            &[good.as_slice(), zero_row.as_slice(), nan_block.as_slice()],
            &mut refs,
        );
        assert_eq!(status[0].health, BlockHealth::Healthy);
        assert_eq!(status[1].health, BlockHealth::Singular);
        assert_eq!(status[2].health, BlockHealth::NonFinite);
        assert!(status[1].is_fallback() && status[2].is_fallback());
        for (a, b) in r0.iter().zip(&rhs_good) {
            assert_eq!(a.to_bits(), b.to_bits(), "healthy member perturbed");
        }
        // degraded members still produce finite output
        assert!(r1.iter().chain(r2.iter()).all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_capacity_flush_is_rejected() {
        let mut h = handle(3, 2);
        let b: Vec<Vec<f64>> = (0..3).map(|s| dd_block(3, s)).collect();
        let mut r: Vec<Vec<f64>> = (0..3).map(|_| vec![1.0; 3]).collect();
        let brefs: Vec<&[f64]> = b.iter().map(|x| x.as_slice()).collect();
        let mut rrefs: Vec<&mut [f64]> = r.iter_mut().map(|x| x.as_mut_slice()).collect();
        h.solve_batch(&brefs, &mut rrefs);
    }
}
