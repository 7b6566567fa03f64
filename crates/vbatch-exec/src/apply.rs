//! Prepared apply: the one CPU solve path, with all dispatch decisions
//! and scratch buffers precomputed.
//!
//! The preconditioner apply runs on *every* Krylov iteration — the
//! paper keeps this path allocation-free by holding the RHS in
//! registers and folding the pivot permutation into its load (§III-B).
//! [`PreparedApply`] is the host analogue: built once per factorized
//! batch, it stores
//!
//! * the ordered list of *apply units* — one per blocked system, one
//!   per native interleaved size class (gather → class-wide sweep →
//!   scatter);
//! * each unit's flat-vector offsets, so the apply operates directly on
//!   the solver's `&mut [T]` with no `VectorBatch` round-trip;
//! * one scratch slab for the whole batch, of which each unit owns a
//!   range pre-sized for its solve form — one allocation at build time,
//!   one lock per apply, disjoint ranges so units can run concurrently.
//!
//! [`crate::Backend::solve_prepared`] runs the units and, on the CPU
//! backends, performs zero heap allocations — proven by the
//! counting-allocator tests in `vbatch-solver`. The one-shot
//! [`crate::Backend::solve`] of the CPU backends is the same path with
//! the preparation paid per call: it builds a `PreparedApply`, runs it
//! once and drops it.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::factors::{BlockFactor, FactorizedBatch};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};
use vbatch_core::{lu_solve_interleaved_class_scratch_simd, Scalar};

/// Factor elements a thread must have to itself before an apply (or one
/// level of a triangular sweep) is split over the pool. Gate open, workers
/// polling, serial → split read 2 048 elements 1.6 → 2.0 µs, 4 096
/// 3.5 → 3.0, 16 384 5.9 → 4.8, 131 072 48 → 26 (EXPERIMENTS.md §M): the
/// gate sits at four times the break-even, a 3 µs share per 0.5 µs dispatch.
pub(crate) const APPLY_GRAIN_ELEMS: usize = 8 * 1024;

/// One unit of prepared apply work: a single blocked system, or all
/// healthy slots of one interleaved size class.
pub(crate) enum ApplyUnit {
    /// One system solved on its own — any factor that is not a slot of
    /// a native interleaved class: segment `offset .. offset + len` of
    /// the flat vector, through
    /// `FactorizedBatch::solve_block_inplace_with`.
    Block {
        /// Block index into the factorized batch.
        block: usize,
        /// Segment start in the flat apply vector.
        offset: usize,
        /// Segment length (= block order).
        len: usize,
        /// Solve scratch (`solve_scratch_elems` elements) in the slab.
        scratch: Range<usize>,
    },
    /// One interleaved size class: gather the member segments into
    /// full-width lanes, run the class-wide sweep, scatter back.
    Class {
        /// Class index into `FactorizedBatch::interleaved`.
        class: usize,
        /// Healthy members as `(slot, flat-vector offset)`; fallback
        /// slots solve a zero RHS and are not scattered back.
        members: Vec<(usize, usize)>,
        /// Gather lanes + permutation scratch (`2 * n * count`) in the
        /// slab.
        scratch: Range<usize>,
    },
}

impl ApplyUnit {
    /// The unit's range of the [`PreparedApply`] scratch slab.
    pub(crate) fn scratch(&self) -> Range<usize> {
        match self {
            ApplyUnit::Block { scratch, .. } | ApplyUnit::Class { scratch, .. } => scratch.clone(),
        }
    }
}

/// Precomputed apply dispatch for one factorized batch; see the module
/// docs. Built by [`crate::Backend::prepare_apply`] and run by
/// [`crate::Backend::solve_prepared`] — in production both inside a
/// [`crate::BlockSolve`], which keeps it with the factors it was built
/// from.
pub struct PreparedApply<T: Scalar> {
    total: usize,
    units: Vec<ApplyUnit>,
    /// Factor elements of the units before unit `i`, and the total.
    work: Vec<usize>,
    hwm_elems: usize,
    /// One slab of `hwm_elems` elements; the units' scratch ranges
    /// partition it.
    scratch: Mutex<Vec<T>>,
}

impl<T: Scalar> PreparedApply<T> {
    /// Precompute the apply dispatch for `factors`: class membership,
    /// flat-vector offsets, and the scratch slab, none of which will be
    /// recomputed (or reallocated) by later applies.
    // setup-time: the dispatch tables and scratch are allocated here, once
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn new(factors: &FactorizedBatch<T>) -> Self {
        // Pre-size this thread's and the pool workers' trace rings now so
        // the per-unit spans of later applies never allocate (the
        // tracing-on zero-alloc guarantee): 4 events per unit per apply.
        vbatch_rt::trace::reserve_pool_rings(4 * factors.len() + 1024);
        let mut offsets = Vec::with_capacity(factors.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &n in &factors.sizes {
            acc += n;
            offsets.push(acc);
        }

        let mut claimed = vec![false; factors.len()];
        let mut units = Vec::new();
        let mut work = vec![0usize];
        let mut hwm_elems = 0usize;
        for (c, cls) in factors.interleaved.classes().iter().enumerate() {
            let mut members = Vec::with_capacity(cls.count());
            for (slot, &blk) in cls.blocks.iter().enumerate() {
                if matches!(factors.factors[blk], BlockFactor::InterleavedLu { .. }) {
                    members.push((slot, offsets[blk]));
                    claimed[blk] = true;
                }
            }
            if !members.is_empty() {
                let scratch = hwm_elems..hwm_elems + 2 * cls.n * cls.count();
                hwm_elems = scratch.end;
                units.push(ApplyUnit::Class {
                    class: c,
                    members,
                    scratch,
                });
                work.push(work[work.len() - 1] + cls.n * cls.n * cls.count());
            }
        }
        for blk in 0..factors.len() {
            if !claimed[blk] {
                let scratch = hwm_elems..hwm_elems + factors.solve_scratch_elems(blk);
                hwm_elems = scratch.end;
                units.push(ApplyUnit::Block {
                    block: blk,
                    offset: offsets[blk],
                    len: factors.sizes[blk],
                    scratch,
                });
                work.push(work[work.len() - 1] + factors.sizes[blk] * factors.sizes[blk]);
            }
        }
        PreparedApply {
            total: acc,
            units,
            work,
            hwm_elems,
            scratch: Mutex::new(vec![T::ZERO; hwm_elems]),
        }
    }

    /// Length of the flat vector this prepared apply expects.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of apply units (blocked systems + interleaved classes).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Total resident scratch across all units, in scalar elements —
    /// the workspace high-water mark reported to
    /// [`crate::ExecStats::record_apply`].
    pub fn workspace_hwm_elems(&self) -> usize {
        self.hwm_elems
    }

    /// The units, and the running sum of their factor elements.
    pub(crate) fn units(&self) -> (&[ApplyUnit], &[usize]) {
        (&self.units, &self.work)
    }

    /// The scratch slab, held for the duration of one apply.
    pub(crate) fn lock_scratch(&self) -> MutexGuard<'_, Vec<T>> {
        self.scratch.lock().expect("apply scratch poisoned")
    }
}

/// Run one apply unit against the flat vector `v`. Allocation-free:
/// every temporary lives in `scratch`, the unit's range of the prepared
/// slab ([`ApplyUnit::scratch`]).
pub(crate) fn run_apply_unit<T: Scalar>(
    factors: &FactorizedBatch<T>,
    unit: &ApplyUnit,
    v: &mut [T],
    scratch: &mut [T],
) {
    match unit {
        ApplyUnit::Block {
            block, offset, len, ..
        } => {
            let _span = vbatch_rt::span!("apply.block", *len);
            factors.solve_block_inplace_with(*block, &mut v[*offset..*offset + *len], scratch);
        }
        ApplyUnit::Class { class, members, .. } => {
            let slab = &factors.interleaved;
            let cls = &slab.classes()[*class];
            let (n, count) = (cls.n, cls.count());
            let _span = vbatch_rt::span!("apply.class", n * count);
            let (x, perm_scratch) = scratch.split_at_mut(n * count);
            // Gather into full-width lanes: absent slots (fallbacks,
            // sanitized to identity factors) solve a zero rhs and are
            // simply not scattered back.
            x.fill(T::ZERO);
            for &(slot, offset) in members {
                let seg = &v[offset..offset + n];
                for i in 0..n {
                    x[i * count + slot] = seg[i];
                }
            }
            let (data, piv) = (slab.data(*class), slab.piv(*class));
            lu_solve_interleaved_class_scratch_simd(n, count, data, piv, x, perm_scratch);
            for &(slot, offset) in members {
                let seg = &mut v[offset..offset + n];
                for i in 0..n {
                    seg[i] = x[i * count + slot];
                }
            }
        }
    }
}

/// A shareable raw view of the flat apply vector, or of the scratch
/// slab, for the parallel driver.
///
/// SAFETY contract: every apply unit of one [`PreparedApply`] touches a
/// disjoint set of segments (each block index appears in exactly one
/// unit, and segments of distinct blocks never overlap by
/// construction of the offsets), so concurrent `slice()` calls from
/// different units never alias; and the units' scratch ranges partition
/// the slab, so concurrent `range()` calls never overlap.
#[derive(Clone, Copy)]
pub(crate) struct FlatVecPtr<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the pointer comes from a `&mut [T]` the parallel driver holds
// for the whole pool call, so sending the view moves nothing
// but the right to write `T`s from another thread — `T: Send`.
unsafe impl<T: Send> Send for FlatVecPtr<T> {}
// SAFETY: a shared view hands out `&mut` reborrows only through the
// two `unsafe fn`s below, whose callers keep concurrent borrows on
// disjoint elements (the contract above); no `&T` is ever shared, so
// `T: Send` suffices.
unsafe impl<T: Send> Sync for FlatVecPtr<T> {}

impl<T> FlatVecPtr<T> {
    pub(crate) fn new(v: &mut [T]) -> Self {
        FlatVecPtr {
            ptr: v.as_mut_ptr(),
            len: v.len(),
        }
    }

    /// Reborrow the whole vector.
    ///
    /// # Safety
    /// Callers must uphold the disjointness contract above: at most one
    /// live borrow per apply unit, units touching disjoint segments,
    /// and the vector `new` was given must still be mutably borrowed.
    #[allow(clippy::mut_from_ref)] // deliberate: pool-thread shared view
    pub(crate) unsafe fn slice(&self) -> &mut [T] {
        // SAFETY: `ptr`/`len` are the parts of the live `&mut [T]` given
        // to `new`; aliasing is the caller's obligation stated above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Reborrow `range` of the vector.
    ///
    /// # Safety
    /// Ranges borrowed at the same time must be pairwise disjoint, and
    /// no `slice()` borrow of the same vector may be live.
    #[allow(clippy::mut_from_ref)] // deliberate: pool-thread shared view
    pub(crate) unsafe fn range(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: the assert keeps the range inside the `&mut [T]` given
        // to `new`; disjointness is the caller's obligation stated above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::cpu::CpuSequential;
    use crate::plan::BatchPlan;
    use crate::stats::ExecStats;
    use vbatch_core::{BatchLayout, MatrixBatch, VectorBatch};
    use vbatch_rt::SmallRng;

    fn random_batch(sizes: &[usize], seed: u64) -> MatrixBatch<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw = vbatch_rt::testgen::dd_batch_of(&mut rng, sizes);
        let mut batch = MatrixBatch::zeros(sizes);
        for i in 0..batch.len() {
            batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
        }
        batch
    }

    #[test]
    fn prepared_apply_units_cover_every_block_once() {
        let sizes = [4usize, 4, 4, 7, 1];
        let batch = random_batch(&sizes, 5);
        let plan = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 2 },
        );
        let mut stats = ExecStats::new();
        let factors = CpuSequential.factorize(batch, &plan, &mut stats);
        let prep = PreparedApply::new(&factors);
        assert_eq!(prep.total(), sizes.iter().sum::<usize>());
        assert!(prep.workspace_hwm_elems() > 0);
        let mut seen = vec![0usize; sizes.len()];
        let mut slab_end = 0;
        for u in prep.units().0 {
            // scratch ranges are handed out back to back
            assert_eq!(u.scratch().start, slab_end);
            slab_end = u.scratch().end;
            match u {
                ApplyUnit::Block { block, .. } => seen[*block] += 1,
                ApplyUnit::Class { class, members, .. } => {
                    for &(slot, _) in members {
                        seen[factors.interleaved.classes()[*class].blocks[slot]] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(slab_end, prep.workspace_hwm_elems());
    }

    #[test]
    fn prepared_apply_matches_solve_bitwise() {
        let sizes = [3usize, 6, 6, 6, 2, 9];
        let batch = random_batch(&sizes, 77);
        for layout in [
            BatchLayout::Blocked,
            BatchLayout::Interleaved { class_capacity: 2 },
        ] {
            let plan = BatchPlan::auto_with_layout::<f64>(&sizes, layout);
            let mut stats = ExecStats::new();
            let factors = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
            let total: usize = sizes.iter().sum();
            let flat: Vec<f64> = (0..total).map(|i| (i % 7) as f64 - 3.0).collect();

            let mut via_solve = VectorBatch::from_flat(&sizes, &flat);
            CpuSequential.solve(&factors, &mut via_solve, &mut stats);

            let prep = CpuSequential.prepare_apply(&factors);
            let mut v = flat.clone();
            CpuSequential.solve_prepared(&factors, &prep, &mut v, &mut stats);
            assert_eq!(v.as_slice(), via_solve.as_slice());
            // and a second pass through the same workspace stays exact
            let mut v2 = flat.clone();
            CpuSequential.solve_prepared(&factors, &prep, &mut v2, &mut stats);
            assert_eq!(v2.as_slice(), v.as_slice());
            assert!(stats.applies >= 2);
            assert!(stats.workspace_hwm_elems >= prep.workspace_hwm_elems());
        }
    }

    #[test]
    fn flat_vec_ptr_roundtrip() {
        let mut v = vec![1.0f64, 2.0, 3.0];
        let p = FlatVecPtr::new(&mut v);
        // SAFETY: the only borrow of `v` while `s` lives.
        unsafe {
            let s = p.slice();
            s[1] = 9.0;
        }
        assert_eq!(v, [1.0, 9.0, 3.0]);
    }
}
