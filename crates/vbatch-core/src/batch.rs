//! Variable-size batch containers.
//!
//! A batch is a large collection (thousands to tens of thousands) of
//! independent small problems of *different* sizes — the scenario
//! block-Jacobi preconditioning produces when supervariable blocking
//! decides the diagonal block sizes. Storage follows the CSR idea: one
//! contiguous value array plus an offsets array, so the whole batch can
//! live in (simulated) device memory as a single allocation and block
//! `i` is the column-major `n_i x n_i` slice at `offsets[i]`.

use crate::dense::DenseMat;
use crate::scalar::Scalar;

/// A batch of square column-major matrices of (possibly) different order.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixBatch<T> {
    sizes: Vec<usize>,
    offsets: Vec<usize>, // len = sizes.len() + 1, offsets[i+1]-offsets[i] = n_i^2
    data: Vec<T>,
}

impl<T: Scalar> MatrixBatch<T> {
    /// Empty batch.
    pub fn new() -> Self {
        Self {
            sizes: Vec::new(),
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Batch with the given block sizes, zero-initialized.
    ///
    /// # Panics
    /// Panics with a clear message when the element count (`Σ n_i²`)
    /// overflows `usize` — pathological size lists must not wrap around
    /// into a silently undersized allocation.
    pub fn zeros(sizes: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for &n in sizes {
            let sq = n.checked_mul(n).unwrap_or_else(|| {
                panic!("MatrixBatch::zeros: block order {n} squared overflows usize")
            });
            total = total.checked_add(sq).unwrap_or_else(|| {
                panic!("MatrixBatch::zeros: total element count overflows usize (block order {n})")
            });
            offsets.push(total);
        }
        Self {
            sizes: sizes.to_vec(),
            offsets,
            data: vec![T::ZERO; total],
        }
    }

    /// Uniform batch: `count` blocks of order `n`, filled by `f(block, i, j)`.
    pub fn uniform_from_fn(
        count: usize,
        n: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut b = Self::zeros(&vec![n; count]);
        for blk in 0..count {
            let data = b.block_mut(blk);
            for j in 0..n {
                for i in 0..n {
                    data[j * n + i] = f(blk, i, j);
                }
            }
        }
        b
    }

    /// Build from a slice of dense matrices (all must be square).
    pub fn from_matrices(mats: &[DenseMat<T>]) -> Self {
        let sizes: Vec<usize> = mats
            .iter()
            .map(|m| {
                assert!(m.is_square(), "batch blocks must be square");
                m.rows()
            })
            .collect();
        let mut b = Self::zeros(&sizes);
        for (i, m) in mats.iter().enumerate() {
            b.block_mut(i).copy_from_slice(m.as_slice());
        }
        b
    }

    /// Append one block, copying its column-major data.
    pub fn push(&mut self, m: &DenseMat<T>) {
        assert!(m.is_square());
        self.sizes.push(m.rows());
        self.data.extend_from_slice(m.as_slice());
        self.offsets.push(self.data.len());
    }

    /// Number of blocks in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the batch holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Order of block `i`.
    #[inline]
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// All block orders.
    #[inline]
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Offsets into the value array (CSR-style, length `len() + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Largest block order in the batch (0 for an empty batch).
    pub fn max_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Total number of stored elements.
    #[inline]
    pub fn total_elements(&self) -> usize {
        self.data.len()
    }

    /// The whole value array (device-memory view for the simulator).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable value array.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the batch and keep its value array — block `i` still at
    /// `offsets()[i]` — so a factorization can overwrite the storage it
    /// was given instead of building its factors in a second copy.
    pub fn into_values(self) -> Vec<T> {
        self.data
    }

    /// Column-major data of block `i`.
    #[inline]
    pub fn block(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Mutable column-major data of block `i`.
    #[inline]
    pub fn block_mut(&mut self, i: usize) -> &mut [T] {
        let (s, e) = (self.offsets[i], self.offsets[i + 1]);
        &mut self.data[s..e]
    }

    /// Copy block `i` out as a [`DenseMat`].
    pub fn block_as_mat(&self, i: usize) -> DenseMat<T> {
        DenseMat::from_col_major(self.sizes[i], self.sizes[i], self.block(i))
    }

    /// Split the value array into per-block mutable slices (disjoint by
    /// construction) so the batch can be processed in parallel.
    pub fn blocks_mut(&mut self) -> Vec<(usize, &mut [T])> {
        let mut out = Vec::with_capacity(self.sizes.len());
        let mut rest: &mut [T] = &mut self.data;
        for i in 0..self.sizes.len() {
            let len = self.offsets[i + 1] - self.offsets[i];
            let (head, tail) = rest.split_at_mut(len);
            out.push((self.sizes[i], head));
            rest = tail;
        }
        out
    }

    /// Immutable per-block slices.
    pub fn blocks(&self) -> Vec<(usize, &[T])> {
        (0..self.len())
            .map(|i| (self.sizes[i], self.block(i)))
            .collect()
    }

    /// Total useful flops of an LU factorization of the whole batch,
    /// using the paper's `2/3 n^3` leading term per block.
    pub fn getrf_flops(&self) -> f64 {
        self.sizes
            .iter()
            .map(|&n| 2.0 / 3.0 * (n as f64).powi(3))
            .sum()
    }

    /// Total useful flops of one pair of triangular solves per block
    /// (`2 n^2` per block, §II-B).
    pub fn trsv_flops(&self) -> f64 {
        self.sizes.iter().map(|&n| 2.0 * (n as f64).powi(2)).sum()
    }
}

impl<T: Scalar> Default for MatrixBatch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A batch of vectors with the same variable sizes as a matrix batch
/// (the right-hand sides / solutions of the block systems).
#[derive(Clone, Debug, PartialEq)]
pub struct VectorBatch<T> {
    sizes: Vec<usize>,
    offsets: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> VectorBatch<T> {
    /// Zero-initialized batch with the given segment sizes.
    pub fn zeros(sizes: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0);
        let mut total = 0;
        for &n in sizes {
            total += n;
            offsets.push(total);
        }
        Self {
            sizes: sizes.to_vec(),
            offsets,
            data: vec![T::ZERO; total],
        }
    }

    /// Build by chopping a flat vector into segments matching `sizes`.
    pub fn from_flat(sizes: &[usize], flat: &[T]) -> Self {
        let mut v = Self::zeros(sizes);
        assert_eq!(flat.len(), v.data.len(), "flat vector length mismatch");
        v.data.copy_from_slice(flat);
        v
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when there are no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Length of segment `i`.
    #[inline]
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// Segment sizes.
    #[inline]
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Flat storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Segment `i`.
    #[inline]
    pub fn seg(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Mutable segment `i`.
    #[inline]
    pub fn seg_mut(&mut self, i: usize) -> &mut [T] {
        let (s, e) = (self.offsets[i], self.offsets[i + 1]);
        &mut self.data[s..e]
    }

    /// Disjoint mutable segments for parallel processing.
    pub fn segs_mut(&mut self) -> Vec<&mut [T]> {
        let mut out = Vec::with_capacity(self.sizes.len());
        let mut rest: &mut [T] = &mut self.data;
        for i in 0..self.sizes.len() {
            let (head, tail) = rest.split_at_mut(self.sizes[i]);
            out.push(head);
            rest = tail;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_layout() {
        let b = MatrixBatch::<f64>::zeros(&[2, 3, 1]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.offsets(), &[0, 4, 13, 14]);
        assert_eq!(b.total_elements(), 14);
        assert_eq!(b.max_size(), 3);
        assert_eq!(b.size(1), 3);
    }

    #[test]
    #[should_panic(expected = "squared overflows usize")]
    fn zeros_rejects_order_whose_square_overflows() {
        let _ = MatrixBatch::<f64>::zeros(&[usize::MAX]);
    }

    #[test]
    #[should_panic(expected = "total element count overflows usize")]
    fn zeros_rejects_total_overflow() {
        // each n^2 fits in usize, but their sum wraps
        let n = 1usize << (usize::BITS / 2 - 1);
        let _ = MatrixBatch::<f64>::zeros(&[n, n, n, n, n]);
    }

    #[test]
    fn push_and_read_back() {
        let mut b = MatrixBatch::<f64>::new();
        assert!(b.is_empty());
        let m1 = DenseMat::from_row_major(2, 2, &[1., 2., 3., 4.]);
        let m2 = DenseMat::from_row_major(3, 3, &[1., 0., 0., 0., 2., 0., 0., 0., 3.]);
        b.push(&m1);
        b.push(&m2);
        assert_eq!(b.block_as_mat(0), m1);
        assert_eq!(b.block_as_mat(1), m2);
    }

    #[test]
    fn from_matrices_roundtrip() {
        let mats = vec![
            DenseMat::from_row_major(1, 1, &[7.0]),
            DenseMat::from_row_major(2, 2, &[1., 2., 3., 4.]),
        ];
        let b = MatrixBatch::from_matrices(&mats);
        for (i, m) in mats.iter().enumerate() {
            assert_eq!(&b.block_as_mat(i), m);
        }
    }

    #[test]
    fn blocks_mut_are_disjoint_and_complete() {
        let mut b = MatrixBatch::<f64>::zeros(&[2, 1, 3]);
        {
            let blocks = b.blocks_mut();
            assert_eq!(blocks.len(), 3);
            assert_eq!(blocks[0].1.len(), 4);
            assert_eq!(blocks[1].1.len(), 1);
            assert_eq!(blocks[2].1.len(), 9);
            for (k, (_, s)) in blocks.into_iter().enumerate() {
                s.iter_mut().for_each(|v| *v = k as f64 + 1.0);
            }
        }
        assert!(b.block(0).iter().all(|&v| v == 1.0));
        assert!(b.block(1).iter().all(|&v| v == 2.0));
        assert!(b.block(2).iter().all(|&v| v == 3.0));
    }

    #[test]
    fn flop_counts() {
        let b = MatrixBatch::<f64>::zeros(&[4, 4]);
        assert!((b.getrf_flops() - 2.0 * 2.0 / 3.0 * 64.0).abs() < 1e-12);
        assert!((b.trsv_flops() - 2.0 * 2.0 * 16.0).abs() < 1e-12);
    }

    #[test]
    fn vector_batch_segments() {
        let mut v = VectorBatch::<f64>::zeros(&[2, 3]);
        v.seg_mut(1).copy_from_slice(&[1., 2., 3.]);
        assert_eq!(v.seg(0), &[0., 0.]);
        assert_eq!(v.seg(1), &[1., 2., 3.]);
        assert_eq!(v.as_slice(), &[0., 0., 1., 2., 3.]);
        let segs = v.segs_mut();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1][2], 3.0);
    }

    #[test]
    fn vector_batch_from_flat() {
        let v = VectorBatch::from_flat(&[1, 2], &[9.0, 8.0, 7.0]);
        assert_eq!(v.seg(0), &[9.0]);
        assert_eq!(v.seg(1), &[8.0, 7.0]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn uniform_from_fn_builds_expected_blocks() {
        let b =
            MatrixBatch::<f64>::uniform_from_fn(3, 2, |blk, i, j| (blk * 100 + i * 10 + j) as f64);
        assert_eq!(b.block_as_mat(2)[(1, 0)], 210.0);
        assert_eq!(b.block_as_mat(0)[(0, 1)], 1.0);
    }
}
