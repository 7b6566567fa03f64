//! Interleaved (structure-of-arrays) batch storage and the class-wide
//! sweep kernels that run on it.
//!
//! The blocked [`crate::MatrixBatch`] stores each block as an isolated
//! column-major slice, so a batched kernel strides through memory one
//! tiny matrix at a time. On the GPU the paper solves the analogous
//! problem with coalescing: every lane of a warp reads a *different*
//! system's element at the *same* matrix position in one transaction.
//! The CPU analogue (Gloster et al., arXiv:1909.04539) is to interleave
//! same-size systems: element `(i, j)` of all blocks of one size class
//! is stored adjacently, so the hot factorize/solve loops become
//! unit-stride sweeps over the batch dimension that the compiler can
//! vectorize.
//!
//! Storage convention for a class of `count` blocks of order `n`:
//!
//! ```text
//! data[(j * n + i) * count + slot]   // element (i, j) of slot `slot`
//! ```
//!
//! i.e. the column-major element index of the blocked layout, scaled by
//! the class population. A *slot* is a block's position within its size
//! class; [`InterleavedBatch`] keeps the slot ↔ original-index
//! permutation so results map back to batch order.
//!
//! The factorization kernel [`getrf_interleaved_class`] performs the
//! paper's implicit partial pivoting with *per-slot pivot lanes*: each
//! slot carries its own `step_of_row` flags, laid out `[r * count +
//! slot]` so the inner loops stay unit-stride. Per slot, the operation
//! sequence is exactly that of
//! [`crate::lu::implicit::getrf_implicit_inplace`], so factors, pivots
//! and solve results agree *bitwise* with the blocked path — the golden
//! differential suite in `vbatch-exec` locks this down.

use crate::batch::MatrixBatch;
use crate::error::FactorError;
use crate::scalar::Scalar;
use crate::widen::Stored;

/// How a batch (or one of its size classes) is laid out in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchLayout {
    /// One contiguous column-major slice per block (the historical
    /// layout of [`MatrixBatch`]).
    Blocked,
    /// Size classes with at least `class_capacity` blocks are stored
    /// interleaved (structure-of-arrays); smaller / ragged classes fall
    /// back to the blocked layout.
    Interleaved {
        /// Minimum class population for interleaving to pay for the
        /// pack/unpack copies.
        class_capacity: usize,
    },
}

/// Default minimum class population for interleaving: below this the
/// pack/unpack traffic costs more than the unit-stride sweeps save.
pub const DEFAULT_CLASS_CAPACITY: usize = 32;

impl BatchLayout {
    /// The default interleaved policy
    /// (`class_capacity = `[`DEFAULT_CLASS_CAPACITY`]).
    pub const fn interleaved() -> Self {
        BatchLayout::Interleaved {
            class_capacity: DEFAULT_CLASS_CAPACITY,
        }
    }

    /// Stable label used in stats and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            BatchLayout::Blocked => "blocked",
            BatchLayout::Interleaved { .. } => "interleaved",
        }
    }
}

/// One size class of an interleaved batch: `blocks.len()` systems of
/// order `n`, stored element-interleaved.
#[derive(Clone, Debug)]
pub struct InterleavedClass<T> {
    n: usize,
    /// Slot → original block index in the source batch.
    blocks: Vec<usize>,
    /// Interleaved values, `data[(j*n + i) * count + slot]`.
    data: Vec<T>,
}

impl<T: Scalar> InterleavedClass<T> {
    /// Pack the listed blocks of `batch` (all of one order) into an
    /// interleaved class, narrowing each element to the class's storage
    /// scalar while gathering (a plain copy when it is the batch's own).
    pub fn pack_from<W: Scalar>(batch: &MatrixBatch<W>, members: &[usize]) -> Self
    where
        T: Stored<W>,
    {
        assert!(!members.is_empty(), "interleaved class must be non-empty");
        let n = batch.size(members[0]);
        let count = members.len();
        let elems = n
            .checked_mul(n)
            .and_then(|sq| sq.checked_mul(count))
            .expect("interleaved class element count overflows usize");
        let blocks: Vec<&[W]> = members
            .iter()
            .map(|&b| {
                assert_eq!(batch.size(b), n, "class members must share one order");
                batch.block(b)
            })
            .collect();
        // transpose with contiguous writes: lane `e` gathers element `e`
        // of every member block
        let mut data = vec![T::ZERO; elems];
        for (e, lane) in data.chunks_exact_mut(count).enumerate() {
            for (dst, blk) in lane.iter_mut().zip(&blocks) {
                *dst = T::narrow(blk[e]);
            }
        }
        InterleavedClass {
            n,
            blocks: members.to_vec(),
            data,
        }
    }

    /// Block order of the class.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of slots (blocks) in the class.
    #[inline]
    pub fn count(&self) -> usize {
        self.blocks.len()
    }

    /// Slot → original block index mapping.
    #[inline]
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// Interleaved value storage.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable interleaved value storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element `(i, j)` of slot `slot`.
    #[inline]
    pub fn get(&self, slot: usize, i: usize, j: usize) -> T {
        let count = self.count();
        self.data[(j * self.n + i) * count + slot]
    }

    /// Decompose into `(n, slot → block mapping, interleaved data)` so
    /// callers can own the storage (e.g. to keep factors resident).
    pub fn into_parts(self) -> (usize, Vec<usize>, Vec<T>) {
        (self.n, self.blocks, self.data)
    }

    /// Copy slot `slot` out as a contiguous column-major block.
    pub fn unpack_slot(&self, slot: usize, out: &mut [T]) {
        let count = self.count();
        debug_assert_eq!(out.len(), self.n * self.n);
        for (e, o) in out.iter_mut().enumerate() {
            *o = self.data[e * count + slot];
        }
    }
}

/// A whole batch in interleaved layout: one [`InterleavedClass`] per
/// distinct block order, plus the permutation mapping interleaved slots
/// back to original block indices.
#[derive(Clone, Debug)]
pub struct InterleavedBatch<T> {
    classes: Vec<InterleavedClass<T>>,
    /// Block index → (class, slot).
    slot_of_block: Vec<(usize, usize)>,
    sizes: Vec<usize>,
}

impl<T: Scalar> InterleavedBatch<T> {
    /// Pack a blocked batch: blocks are grouped into size classes
    /// (ascending by order, original order preserved within a class)
    /// and every class is stored interleaved.
    pub fn pack(batch: &MatrixBatch<T>) -> Self {
        let sizes = batch.sizes().to_vec();
        let mut members = std::collections::BTreeMap::<usize, Vec<usize>>::new();
        for (i, &n) in sizes.iter().enumerate() {
            members.entry(n).or_default().push(i);
        }
        let mut classes = Vec::with_capacity(members.len());
        let mut slot_of_block = vec![(0usize, 0usize); sizes.len()];
        for (c, (_, idx)) in members.into_iter().enumerate() {
            for (slot, &b) in idx.iter().enumerate() {
                slot_of_block[b] = (c, slot);
            }
            classes.push(InterleavedClass::pack_from(batch, &idx));
        }
        InterleavedBatch {
            classes,
            slot_of_block,
            sizes,
        }
    }

    /// Reconstruct the blocked batch, restoring the original block
    /// order. `unpack(pack(b)) == b` bitwise.
    pub fn unpack(&self) -> MatrixBatch<T> {
        let mut out = MatrixBatch::zeros(&self.sizes);
        for (b, &(c, slot)) in self.slot_of_block.iter().enumerate() {
            self.classes[c].unpack_slot(slot, out.block_mut(b));
        }
        out
    }

    /// The size classes, ascending by block order.
    #[inline]
    pub fn classes(&self) -> &[InterleavedClass<T>] {
        &self.classes
    }

    /// `(class, slot)` of block `b`.
    #[inline]
    pub fn slot_of_block(&self, b: usize) -> (usize, usize) {
        self.slot_of_block[b]
    }

    /// Number of blocks across all classes.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the batch holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Original block orders, in batch order.
    #[inline]
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }
}

/// Sentinel marking a row not yet selected as pivot (mirrors the
/// blocked implicit kernel).
const UNPIVOTED: usize = usize::MAX;

/// Factorize every slot of an interleaved class in place with implicit
/// partial pivoting, sweeping the batch dimension in the inner loops.
///
/// * `data` — interleaved class values (`n*n*count`), overwritten with
///   the combined `L\U` factors *in pivot order* per slot;
/// * `row_of_step` — `n*count` pivot lanes, filled with
///   `row_of_step[k*count + slot]` = original row chosen at step `k`.
///
/// Per slot the arithmetic (operation order, `mul_add` use, the final
/// combined row swap) is identical to
/// [`crate::lu::implicit::getrf_implicit_inplace`], so results agree
/// bitwise with the blocked kernel.
///
/// Never aborts on a singular slot: the offending slot is reported in
/// the returned vector (`Some(error)`), its factors are sanitized to
/// the identity and its pivot lane to the identity permutation, so
/// class-wide sweeps over the remaining slots stay well-defined.
pub fn getrf_interleaved_class<T: Scalar>(
    n: usize,
    count: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
) -> Vec<Option<FactorError>> {
    assert_eq!(data.len(), n * n * count);
    assert_eq!(row_of_step.len(), n * count);
    // step_of_row lanes: step[r*count + slot]
    let mut step = vec![UNPIVOTED; n * count];
    let mut failed: Vec<Option<FactorError>> = vec![None; count];
    // bool shadow of `failed`: the hot loops read this contiguous mask
    // instead of striding over `Option` discriminants
    let mut alive = vec![true; count];

    // per-slot finite pre-scan, mirroring the blocked kernel's
    // `check_finite`: corrupted slots are diagnosed as `NonFinite` (at
    // the same column-major-first position) instead of failing later
    // with a misleading `SingularPivot`
    for col in 0..n {
        for row in 0..n {
            let lane = &data[(col * n + row) * count..(col * n + row + 1) * count];
            for s in 0..count {
                if alive[s] && !lane[s].is_finite() {
                    failed[s] = Some(FactorError::NonFinite { row, col });
                    alive[s] = false;
                }
            }
        }
    }

    for k in 0..n {
        // --- implicit pivot selection per slot over unpivoted rows ----
        let mut ipiv = vec![UNPIVOTED; count];
        let mut best = vec![T::ZERO; count];
        let col_k = &data[k * n * count..(k * n + n) * count];
        for r in 0..n {
            let lane = &col_k[r * count..r * count + count];
            let steps = &step[r * count..r * count + count];
            for s in 0..count {
                if !alive[s] || steps[s] != UNPIVOTED {
                    continue;
                }
                let av = lane[s].abs();
                if ipiv[s] == UNPIVOTED || av > best[s] {
                    best[s] = av;
                    ipiv[s] = r;
                }
            }
        }
        for s in 0..count {
            if !alive[s] {
                continue;
            }
            if ipiv[s] == UNPIVOTED || best[s] == T::ZERO || !best[s].is_finite() {
                failed[s] = Some(FactorError::SingularPivot { step: k });
                alive[s] = false;
            } else {
                step[ipiv[s] * count + s] = k;
            }
        }

        // --- SCAL: column k of the still-unpivoted rows -----------------
        // d[s] = pivot element of slot s at this step; failed slots keep
        // d = 1 so the unconditional divide below leaves their bits
        // unchanged (x/1 is exact) — they are sanitized at the end anyway
        let mut d = vec![T::ONE; count];
        for s in 0..count {
            if alive[s] {
                d[s] = data[(k * n + ipiv[s]) * count + s];
            }
        }
        // branchless select keeps the slot loop vectorizable: skipped
        // lanes retain their exact old bits, so results are unchanged
        for r in 0..n {
            let lane = &mut data[(k * n + r) * count..(k * n + r + 1) * count];
            let steps = &step[r * count..r * count + count];
            for s in 0..count {
                let old = lane[s];
                let scaled = old / d[s];
                lane[s] = if steps[s] != UNPIVOTED { old } else { scaled };
            }
        }

        // --- GER: trailing update of the unpivoted rows -----------------
        let mut pivot_val = vec![T::ZERO; count];
        for j in k + 1..n {
            // split_at_mut proves the multiplier column (k) and the
            // updated column (j > k) are disjoint, so the lane loop can
            // vectorize without runtime alias checks
            let (lo, hi) = data.split_at_mut(j * n * count);
            let col_k = &lo[k * n * count..(k * n + n) * count];
            let col_j = &mut hi[..n * count];
            for s in 0..count {
                pivot_val[s] = if alive[s] {
                    col_j[ipiv[s] * count + s]
                } else {
                    T::ZERO
                };
            }
            // branchless: the update is computed for every lane and a
            // select keeps the old bits where the blocked kernel would
            // have skipped — `pivot_val == 0` also covers failed slots,
            // matching the blocked kernel's zero-column skip
            for r in 0..n {
                let mult = &col_k[r * count..r * count + count];
                let upd = &mut col_j[r * count..(r + 1) * count];
                let steps = &step[r * count..r * count + count];
                for s in 0..count {
                    let old = upd[s];
                    let new = (-mult[s]).mul_add(pivot_val[s], old);
                    let skip = pivot_val[s] == T::ZERO || steps[s] != UNPIVOTED;
                    upd[s] = if skip { old } else { new };
                }
            }
        }
    }

    // --- combined row swap: row r moves to position step[r] per slot ----
    let mut scratch = vec![T::ZERO; n * count];
    for j in 0..n {
        let col = &mut data[j * n * count..(j * n + n) * count];
        scratch.copy_from_slice(col);
        for r in 0..n {
            for s in 0..count {
                if failed[s].is_none() {
                    col[step[r * count + s] * count + s] = scratch[r * count + s];
                }
            }
        }
    }

    // --- pivot lanes: row_of_step[k] = r with step[r] == k --------------
    for k in 0..n {
        for s in 0..count {
            row_of_step[k * count + s] = k; // identity default (failed slots)
        }
    }
    for r in 0..n {
        for s in 0..count {
            if failed[s].is_none() {
                row_of_step[step[r * count + s] * count + s] = r;
            }
        }
    }

    // --- sanitize failed slots to the identity so class-wide solves
    //     remain finite no-ops for them -----------------------------------
    for s in 0..count {
        if failed[s].is_some() {
            for j in 0..n {
                for i in 0..n {
                    data[(j * n + i) * count + s] = if i == j { T::ONE } else { T::ZERO };
                }
            }
        }
    }
    failed
}

/// Permuted eager TRSV sweeps over every slot of a factorized
/// interleaved class, in place on right-hand-side lanes
/// `x[i*count + slot]`.
///
/// Per slot this performs exactly [`crate::trsv::lu_solve_inplace`]
/// with the eager (AXPY) variant: permute `b := P b`, unit-lower sweep,
/// upper sweep — so results agree bitwise with the blocked solve. The
/// inner loops run over the batch dimension (unit stride).
pub fn lu_solve_interleaved_class<T: Scalar>(
    n: usize,
    count: usize,
    data: &[T],
    row_of_step: &[usize],
    x: &mut [T],
) {
    let mut scratch = vec![T::ZERO; n * count];
    lu_solve_interleaved_class_scratch(n, count, data, row_of_step, x, &mut scratch);
}

/// [`lu_solve_interleaved_class`] with caller-provided scratch
/// (`scratch.len() >= n * count`) for the permutation gather, so the
/// steady-state apply performs no heap allocation. Bitwise identical to
/// the allocating form (the gather is an element-exact copy).
pub fn lu_solve_interleaved_class_scratch<T: Scalar>(
    n: usize,
    count: usize,
    data: &[T],
    row_of_step: &[usize],
    x: &mut [T],
    scratch: &mut [T],
) {
    assert_eq!(data.len(), n * n * count);
    assert_eq!(row_of_step.len(), n * count);
    assert_eq!(x.len(), n * count);
    assert!(scratch.len() >= n * count);

    // b := P b (out of place, like the register gather on the GPU)
    let permuted = &mut scratch[..n * count];
    for k in 0..n {
        for s in 0..count {
            permuted[k * count + s] = x[row_of_step[k * count + s] * count + s];
        }
    }
    x.copy_from_slice(permuted);

    // unit-lower eager sweep: b(k+1..n) -= L(k+1..n, k) * b(k)
    for k in 0..n.saturating_sub(1) {
        let (head, tail) = x.split_at_mut((k + 1) * count);
        let bk = &head[k * count..];
        for i in k + 1..n {
            let l = &data[(k * n + i) * count..(k * n + i + 1) * count];
            let xi = &mut tail[(i - k - 1) * count..(i - k) * count];
            for s in 0..count {
                xi[s] = (-l[s]).mul_add(bk[s], xi[s]);
            }
        }
    }

    // upper eager sweep: b(k) /= U(k,k); b(0..k) -= U(0..k, k) * b(k)
    for k in (0..n).rev() {
        let (head, tail) = x.split_at_mut(k * count);
        let bk = &mut tail[..count];
        let diag = &data[(k * n + k) * count..(k * n + k + 1) * count];
        for s in 0..count {
            bk[s] /= diag[s];
        }
        for i in 0..k {
            let u = &data[(k * n + i) * count..(k * n + i + 1) * count];
            let xi = &mut head[i * count..(i + 1) * count];
            for s in 0..count {
                xi[s] = (-u[s]).mul_add(bk[s], xi[s]);
            }
        }
    }
}

/// Solve one slot of a factorized interleaved class in place, reading
/// the factors with stride `count` (for per-block host paths). Same
/// operation order as the class-wide sweep, hence bitwise-identical
/// results.
pub fn lu_solve_interleaved_slot<T: Scalar>(
    n: usize,
    count: usize,
    slot: usize,
    data: &[T],
    row_of_step: &[usize],
    b: &mut [T],
) {
    let mut scratch = vec![T::ZERO; n];
    lu_solve_interleaved_slot_scratch(n, count, slot, data, row_of_step, b, &mut scratch);
}

/// [`lu_solve_interleaved_slot`] with caller-provided scratch
/// (`scratch.len() >= n`) for the permutation gather. Bitwise identical
/// to the allocating form. The class may be stored in a narrower scalar
/// `S` than the working scalar `T` of `b` (see [`crate::widen`]).
#[allow(clippy::too_many_arguments)] // mirrors the slot solve plus scratch
#[inline]
pub fn lu_solve_interleaved_slot_scratch<T: Scalar, S: Stored<T>>(
    n: usize,
    count: usize,
    slot: usize,
    data: &[S],
    row_of_step: &[usize],
    b: &mut [T],
    scratch: &mut [T],
) {
    debug_assert_eq!(b.len(), n);
    debug_assert!(scratch.len() >= n);
    let at = |i: usize, j: usize| data[(j * n + i) * count + slot].widen();
    let permuted = &mut scratch[..n];
    for (k, p) in permuted.iter_mut().enumerate() {
        *p = b[row_of_step[k * count + slot]];
    }
    b.copy_from_slice(permuted);
    for k in 0..n.saturating_sub(1) {
        let bk = b[k];
        for i in k + 1..n {
            b[i] = (-at(i, k)).mul_add(bk, b[i]);
        }
    }
    for k in (0..n).rev() {
        let bk = b[k] / at(k, k);
        b[k] = bk;
        for i in 0..k {
            b[i] = (-at(i, k)).mul_add(bk, b[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMat;
    use crate::lu::implicit::getrf_implicit_inplace;
    use crate::trsv::{lu_solve_inplace, TrsvVariant};

    fn mixed_batch() -> MatrixBatch<f64> {
        let mats: Vec<DenseMat<f64>> = [2usize, 3, 2, 3, 3, 1]
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                DenseMat::from_fn(n, n, |i, j| {
                    let h = (i * 131 + j * 37 + s * 7919 + 11) % 512;
                    h as f64 / 256.0 - 1.0 + if i == j { 3.0 } else { 0.0 }
                })
            })
            .collect();
        MatrixBatch::from_matrices(&mats)
    }

    #[test]
    fn pack_unpack_roundtrip_bitwise() {
        let b = mixed_batch();
        let il = InterleavedBatch::pack(&b);
        assert_eq!(il.len(), b.len());
        assert_eq!(il.classes().len(), 3); // orders 1, 2, 3
        let back = il.unpack();
        assert_eq!(back.sizes(), b.sizes());
        assert_eq!(back.as_slice(), b.as_slice());
    }

    #[test]
    fn slot_mapping_is_consistent() {
        let b = mixed_batch();
        let il = InterleavedBatch::pack(&b);
        for blk in 0..b.len() {
            let (c, slot) = il.slot_of_block(blk);
            let cls = &il.classes()[c];
            assert_eq!(cls.blocks()[slot], blk);
            assert_eq!(cls.n(), b.size(blk));
            let n = cls.n();
            for j in 0..n {
                for i in 0..n {
                    assert_eq!(cls.get(slot, i, j), b.block(blk)[j * n + i]);
                }
            }
        }
    }

    #[test]
    fn interleaved_getrf_matches_blocked_bitwise() {
        let n = 5;
        let count = 7;
        let b = MatrixBatch::<f64>::uniform_from_fn(count, n, |s, i, j| {
            let h = (i * 193 + j * 61 + s * 977 + 5) % 1024;
            h as f64 / 512.0 - 1.0 + if i == j { 2.5 } else { 0.0 }
        });
        let il = InterleavedBatch::pack(&b);
        let mut cls = il.classes()[0].clone();
        let mut piv = vec![0usize; n * count];
        let errs = getrf_interleaved_class(n, count, cls.data_mut(), &mut piv);
        assert!(errs.iter().all(|e| e.is_none()));
        for slot in 0..count {
            let mut blocked = b.block(slot).to_vec();
            let perm = getrf_implicit_inplace(n, &mut blocked).unwrap();
            let mut unpacked = vec![0.0; n * n];
            cls.unpack_slot(slot, &mut unpacked);
            assert_eq!(unpacked, blocked, "slot {slot} factors");
            let lane: Vec<usize> = (0..n).map(|k| piv[k * count + slot]).collect();
            assert_eq!(lane, perm.as_slice(), "slot {slot} pivots");
        }
    }

    #[test]
    fn interleaved_solve_matches_blocked_bitwise() {
        let n = 6;
        let count = 5;
        let b = MatrixBatch::<f64>::uniform_from_fn(count, n, |s, i, j| {
            let h = (i * 89 + j * 211 + s * 433 + 1) % 512;
            h as f64 / 256.0 - 1.0 + if i == j { 4.0 } else { 0.0 }
        });
        let il = InterleavedBatch::pack(&b);
        let mut cls = il.classes()[0].clone();
        let mut piv = vec![0usize; n * count];
        let errs = getrf_interleaved_class(n, count, cls.data_mut(), &mut piv);
        assert!(errs.iter().all(|e| e.is_none()));

        // class-wide sweep
        let mut lanes = vec![0.0f64; n * count];
        for s in 0..count {
            for i in 0..n {
                lanes[i * count + s] = ((i * 3 + s) % 7) as f64 - 3.0;
            }
        }
        let mut class_x = lanes.clone();
        lu_solve_interleaved_class(n, count, cls.data(), &piv, &mut class_x);

        for slot in 0..count {
            // blocked reference
            let mut blocked = b.block(slot).to_vec();
            let perm = getrf_implicit_inplace(n, &mut blocked).unwrap();
            let mut rhs: Vec<f64> = (0..n).map(|i| lanes[i * count + slot]).collect();
            lu_solve_inplace(TrsvVariant::Eager, n, &blocked, perm.as_slice(), &mut rhs);
            // strided single-slot solve
            let mut slot_x: Vec<f64> = (0..n).map(|i| lanes[i * count + slot]).collect();
            lu_solve_interleaved_slot(n, count, slot, cls.data(), &piv, &mut slot_x);
            for i in 0..n {
                assert_eq!(class_x[i * count + slot], rhs[i], "slot {slot} row {i}");
                assert_eq!(slot_x[i], rhs[i], "slot {slot} row {i} (strided)");
            }
        }
    }

    #[test]
    fn singular_slot_is_reported_and_sanitized() {
        let n = 3;
        let count = 4;
        let mut b = MatrixBatch::<f64>::uniform_from_fn(count, n, |s, i, j| {
            ((i * 7 + j * 13 + s * 3 + 1) % 16) as f64 / 8.0 + if i == j { 2.0 } else { 0.0 }
        });
        // make slot 2 exactly singular (two equal rows)
        {
            let blk = b.block_mut(2);
            for c in 0..n {
                blk[c * n + 1] = blk[c * n];
            }
        }
        let il = InterleavedBatch::pack(&b);
        let mut cls = il.classes()[0].clone();
        let mut piv = vec![0usize; n * count];
        let errs = getrf_interleaved_class(n, count, cls.data_mut(), &mut piv);
        assert!(errs[2].is_some());
        assert_eq!(errs.iter().filter(|e| e.is_some()).count(), 1);
        // failed slot sanitized to identity factors + identity pivots
        for j in 0..n {
            for i in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert_eq!(cls.get(2, i, j), want);
            }
        }
        for k in 0..n {
            assert_eq!(piv[k * count + 2], k);
        }
        // healthy slots still match the blocked kernel bitwise
        for slot in [0usize, 1, 3] {
            let mut blocked = b.block(slot).to_vec();
            let perm = getrf_implicit_inplace(n, &mut blocked).unwrap();
            let mut unpacked = vec![0.0; n * n];
            cls.unpack_slot(slot, &mut unpacked);
            assert_eq!(unpacked, blocked, "slot {slot}");
            let lane: Vec<usize> = (0..n).map(|k| piv[k * count + slot]).collect();
            assert_eq!(lane, perm.as_slice());
        }
    }

    #[test]
    fn non_finite_slot_reported_per_slot_and_sanitized() {
        let n = 3;
        let count = 4;
        let mut b = MatrixBatch::<f64>::uniform_from_fn(count, n, |s, i, j| {
            ((i * 7 + j * 13 + s * 3 + 1) % 16) as f64 / 8.0 + if i == j { 2.0 } else { 0.0 }
        });
        b.block_mut(1)[2 * n] = f64::NAN; // element (0, 2) of slot 1
        b.block_mut(3)[n + 1] = f64::INFINITY; // element (1, 1) of slot 3
        let il = InterleavedBatch::pack(&b);
        let mut cls = il.classes()[0].clone();
        let mut piv = vec![0usize; n * count];
        let errs = getrf_interleaved_class(n, count, cls.data_mut(), &mut piv);
        assert_eq!(errs[1], Some(FactorError::NonFinite { row: 0, col: 2 }));
        assert_eq!(errs[3], Some(FactorError::NonFinite { row: 1, col: 1 }));
        assert!(errs[0].is_none() && errs[2].is_none());
        // corrupted slots sanitized to identity factors + identity pivots
        for slot in [1usize, 3] {
            for j in 0..n {
                for i in 0..n {
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert_eq!(cls.get(slot, i, j), want, "slot {slot}");
                }
            }
            for k in 0..n {
                assert_eq!(piv[k * count + slot], k);
            }
        }
        // healthy slots still match the blocked kernel bitwise
        for slot in [0usize, 2] {
            let mut blocked = b.block(slot).to_vec();
            let perm = getrf_implicit_inplace(n, &mut blocked).unwrap();
            let mut unpacked = vec![0.0; n * n];
            cls.unpack_slot(slot, &mut unpacked);
            assert_eq!(unpacked, blocked, "slot {slot}");
            let lane: Vec<usize> = (0..n).map(|k| piv[k * count + slot]).collect();
            assert_eq!(lane, perm.as_slice());
        }
    }

    #[test]
    fn layout_labels() {
        assert_eq!(BatchLayout::Blocked.label(), "blocked");
        assert_eq!(BatchLayout::interleaved().label(), "interleaved");
        assert_eq!(
            BatchLayout::interleaved(),
            BatchLayout::Interleaved {
                class_capacity: DEFAULT_CLASS_CAPACITY
            }
        );
    }
}
