//! Interleaved (structure-of-arrays) batch storage.
//!
//! The blocked [`crate::MatrixBatch`] stores each block as an isolated
//! column-major slice, so a batched kernel strides through memory one
//! tiny matrix at a time. On the GPU the paper solves the analogous
//! problem with coalescing: every lane of a warp reads a *different*
//! system's element at the *same* matrix position in one transaction.
//! The CPU analogue (Gloster et al., arXiv:1909.04539) is to interleave
//! same-size systems: element `(i, j)` of all blocks of one size class
//! is stored adjacently, so one vector register holds the same element
//! of `W` systems.
//!
//! Storage convention for a class of `count` blocks of order `n`:
//!
//! ```text
//! data[(j * n + i) * count + slot]   // element (i, j) of slot `slot`
//! ```
//!
//! i.e. the column-major element index of the blocked layout, scaled by
//! the class population. A *slot* is a block's position within its size
//! class; [`InterleavedClass::blocks`] maps slots back to batch order.
//! Pivots are *per-slot lanes* in the same convention:
//! `row_of_step[k * count + slot]` is the original row slot `slot`
//! chose at step `k`.
//!
//! This module holds the layout ([`BatchLayout`], [`InterleavedClass`]).
//! The class-wide GETRF and TRSV that run on the layout are the lane
//! kernels of [`crate::interleaved_simd`]; one slot is read in place by
//! [`crate::LuView::slot`], whose solves and condition estimate are
//! those of a block's own factor at stride `count`.

use crate::batch::MatrixBatch;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condest::inverse_norm1_est;
    use crate::dense::DenseMat;
    use crate::error::FactorError;
    use crate::interleaved_simd::tests::assert_class_matches_per_block;
    use crate::interleaved_simd::{getrf_interleaved_class_simd, SUPPORTED_WIDTHS};
    use crate::trsv::LuView;

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

    /// Pack a uniform batch as one class and hold the class kernels,
    /// at every width, against the per-block kernels on its blocks;
    /// returns the error map.
    fn check_class(b: &MatrixBatch<f64>) -> Vec<Option<FactorError>> {
        let members: Vec<usize> = (0..b.len()).collect();
        let cls = InterleavedClass::<f64>::pack_from(b, &members);
        let mut errs = Vec::new();
        for w in SUPPORTED_WIDTHS {
            errs = assert_class_matches_per_block(w, cls.n(), cls.count(), cls.data());
        }
        errs
    }

    #[test]
    fn pack_unpack_roundtrip_bitwise() {
        let b = mixed_batch();
        for members in [vec![0usize, 2], vec![1, 3, 4], vec![5], vec![4, 1]] {
            let cls = InterleavedClass::<f64>::pack_from(&b, &members);
            assert_eq!(cls.count(), members.len());
            assert_eq!(cls.blocks(), &members[..]);
            let n = cls.n();
            for (slot, &blk) in members.iter().enumerate() {
                assert_eq!(n, b.size(blk));
                let mut back = vec![0.0; n * n];
                cls.unpack_slot(slot, &mut back);
                assert_eq!(back, b.block(blk));
                for j in 0..n {
                    for i in 0..n {
                        assert_eq!(cls.get(slot, i, j), b.block(blk)[j * n + i]);
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_getrf_matches_blocked_bitwise() {
        let b = MatrixBatch::<f64>::uniform_from_fn(7, 5, |s, i, j| {
            let h = (i * 193 + j * 61 + s * 977 + 5) % 1024;
            h as f64 / 512.0 - 1.0 + if i == j { 2.5 } else { 0.0 }
        });
        assert!(check_class(&b).iter().all(|e| e.is_none()));
    }

    /// Factorize `b` as one class stored in `S` and hold every slot,
    /// read in place, against the same factor unpacked to contiguous
    /// storage: the solve, the multi-RHS solve (whose columns are also
    /// the single solves) and the condition estimate agree bitwise.
    fn assert_slot_views_agree<S: Stored<f64>>(b: &MatrixBatch<f64>, ctx: &str) {
        let (n, count) = (b.size(0), b.len());
        let members: Vec<usize> = (0..count).collect();
        let mut cls = InterleavedClass::<S>::pack_from(b, &members);
        let mut piv = vec![0usize; n * count];
        let errs = getrf_interleaved_class_simd(n, count, cls.data_mut(), &mut piv);
        assert_eq!(errs.len(), count, "{ctx}");
        assert_eq!(
            errs.get(1).is_some_and(|e| e.is_some()),
            count > 1 && n > 0,
            "{ctx}"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut lu, mut work) = (vec![S::ZERO; n * n], vec![S::ZERO; 4 * n]);
        let mut scratch = vec![0.0f64; 7 * n];
        for (slot, err) in errs.iter().enumerate() {
            let ctx = format!("{ctx} slot {slot}");
            cls.unpack_slot(slot, &mut lu);
            let rows: Vec<usize> = (0..n).map(|k| piv[k * count + slot]).collect();
            if err.is_some() {
                assert_eq!(rows, (0..n).collect::<Vec<_>>(), "{ctx}: identity pivots");
                let identity =
                    (0..n * n).all(|e| lu[e] == if e % (n + 1) == 0 { S::ONE } else { S::ZERO });
                assert!(identity, "{ctx}: identity factors");
            }
            let strided = LuView::slot(n, count, slot, cls.data(), &piv);
            let contiguous = LuView::new(&lu, &rows);
            for nrhs in [1usize, 7] {
                let rhs: Vec<f64> = (0..n * nrhs)
                    .map(|e| ((e * 3 + slot) % 7) as f64 - 3.0)
                    .collect();
                let (mut x, mut y) = (rhs.clone(), rhs.clone());
                strided.solve_multi_inplace(nrhs, &mut x, &mut scratch);
                contiguous.solve_multi_inplace(nrhs, &mut y, &mut scratch);
                assert_eq!(bits(&x), bits(&y), "{ctx} nrhs {nrhs}");
                for c in 0..nrhs {
                    let col = c * n..(c + 1) * n;
                    let (mut s, mut t) = (rhs[col.clone()].to_vec(), rhs[col.clone()].to_vec());
                    strided.solve_inplace(&mut s, &mut scratch);
                    contiguous.solve_inplace(&mut t, &mut scratch);
                    assert_eq!(bits(&s), bits(&x[col.clone()]), "{ctx} column {c}");
                    assert_eq!(bits(&t), bits(&x[col]), "{ctx} column {c}");
                }
            }
            let est = inverse_norm1_est(&strided, &mut work).to_f64();
            let want = inverse_norm1_est(&contiguous, &mut work).to_f64();
            assert_eq!(est.to_bits(), want.to_bits(), "{ctx} condest");
        }
    }

    #[test]
    fn strided_slot_solve_matches_blocked_bitwise() {
        for n in [0usize, 1, 2, 5, 8, 16, 17, 32, 33] {
            for count in [1usize, 3, 8] {
                // slot 1 is zero: singular at step 0, sanitized to identity
                let b = MatrixBatch::<f64>::uniform_from_fn(count, n, |s, i, j| {
                    let h = (i * 89 + j * 211 + s * 433 + 1) % 512;
                    let v = h as f64 / 256.0 - 1.0 + if i == j { 4.0 } else { 0.0 };
                    if s == 1 {
                        0.0
                    } else {
                        v
                    }
                });
                let ctx = format!("n={n} count={count}");
                assert_slot_views_agree::<f64>(&b, &format!("{ctx} f64"));
                assert_slot_views_agree::<f32>(&b, &format!("{ctx} f32"));
            }
        }
    }

    fn small_batch() -> MatrixBatch<f64> {
        MatrixBatch::<f64>::uniform_from_fn(4, 3, |s, i, j| {
            ((i * 7 + j * 13 + s * 3 + 1) % 16) as f64 / 8.0 + if i == j { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn singular_slot_is_reported_and_sanitized() {
        let n = 3;
        let mut b = small_batch();
        // make slot 2 exactly singular (two equal rows)
        {
            let blk = b.block_mut(2);
            for c in 0..n {
                blk[c * n + 1] = blk[c * n];
            }
        }
        let errs = check_class(&b);
        assert!(matches!(errs[2], Some(FactorError::SingularPivot { .. })));
        assert_eq!(errs.iter().filter(|e| e.is_some()).count(), 1);
    }

    #[test]
    fn non_finite_slot_reported_per_slot_and_sanitized() {
        let n = 3;
        let mut b = small_batch();
        b.block_mut(1)[2 * n] = f64::NAN; // element (0, 2) of slot 1
        b.block_mut(3)[n + 1] = f64::INFINITY; // element (1, 1) of slot 3
        let errs = check_class(&b);
        assert_eq!(errs[1], Some(FactorError::NonFinite { row: 0, col: 2 }));
        assert_eq!(errs[3], Some(FactorError::NonFinite { row: 1, col: 1 }));
        assert!(errs[0].is_none() && errs[2].is_none());
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
