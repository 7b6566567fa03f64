//! Compressed Sparse Row matrices — the storage format the paper's
//! extraction step (§III-C) and the Krylov solvers operate on.

use crate::coo::CooMatrix;
use vbatch_core::{DenseMat, Scalar};

/// A sparse matrix in CSR format with sorted column indices per row.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build directly from raw CSR arrays, validating the invariants
    /// (monotone row pointers, in-bounds sorted unique column indices).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<T>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col/val length mismatch");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "nnz mismatch");
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr must be monotone");
        }
        for r in 0..nrows {
            let seg = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in seg.windows(2) {
                assert!(w[0] < w[1], "row {r}: columns must be sorted unique");
            }
            if let Some(&c) = seg.last() {
                assert!(c < ncols, "row {r}: column {c} out of bounds");
            }
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// An `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![T::ONE; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row-pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Mutable value array (pattern stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_vals(&self, r: usize) -> &[T] {
        &self.vals[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Number of nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Entry `(i, j)` or zero (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> T {
        let cols = self.row_cols(i);
        match cols.binary_search(&j) {
            Ok(p) => self.row_vals(i)[p],
            Err(_) => T::ZERO,
        }
    }

    /// Main diagonal as a dense vector (zero where absent).
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut cnt = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            cnt[c + 1] += 1;
        }
        for i in 0..self.ncols {
            cnt[i + 1] += cnt[i];
        }
        let row_ptr = cnt.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![T::ZERO; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.nrows {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[p];
                let q = next[c];
                col_idx[q] = r;
                vals[q] = self.vals[p];
                next[c] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// `true` if the sparsity pattern and values are symmetric (within
    /// `tol` on the values).
    pub fn is_symmetric(&self, tol: T) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.vals
            .iter()
            .zip(&t.vals)
            .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Densify (small matrices / tests only).
    pub fn to_dense(&self) -> DenseMat<T> {
        let mut d = DenseMat::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                d[(r, *c)] = *v;
            }
        }
        d
    }

    /// Symmetric permutation `P A P^T`: row and column `perm[k]` of the
    /// input become row/column `k` of the output (`perm` in row-of-step
    /// form, as produced by the reordering algorithms).
    pub fn permute_symmetric(&self, perm: &[usize]) -> Self {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.nrows);
        let mut inv = vec![0usize; perm.len()];
        for (k, &p) in perm.iter().enumerate() {
            inv[p] = k;
        }
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                coo.push(inv[r], inv[*c], *v);
            }
        }
        coo.to_csr()
    }

    /// Structural bandwidth: `max |i - j|` over stored entries.
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for r in 0..self.nrows {
            for &c in self.row_cols(r) {
                bw = bw.max(r.abs_diff(c));
            }
        }
        bw
    }

    /// Scale into a new matrix: `out = alpha * self`.
    pub fn scaled(&self, alpha: T) -> Self {
        let mut out = self.clone();
        for v in out.vals.iter_mut() {
            *v *= alpha;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [10  2  0]
        // [ 3 20  0]
        // [ 0  0 30]
        CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 0, 1, 2],
            vec![10.0, 2.0, 3.0, 20.0, 30.0],
        )
    }

    #[test]
    fn accessors() {
        let a = sample();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.row_cols(1), &[0, 1]);
        assert_eq!(a.row_nnz(2), 1);
        assert_eq!(a.diagonal(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic]
    fn unsorted_columns_rejected() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_column_rejected() {
        let _ = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(1, 0), 2.0);
        assert_eq!(a.transpose().get(0, 1), 3.0);
    }

    #[test]
    fn symmetry_check() {
        let a = sample();
        assert!(!a.is_symmetric(1e-12));
        let sym = CsrMatrix::from_raw(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![2.0, -1.0, -1.0, 2.0],
        );
        assert!(sym.is_symmetric(1e-12));
    }

    #[test]
    fn identity_and_dense() {
        let i = CsrMatrix::<f64>::identity(3);
        let d = i.to_dense();
        assert_eq!(d, DenseMat::identity(3));
    }

    #[test]
    fn symmetric_permutation() {
        let a = sample();
        // reverse ordering
        let p = a.permute_symmetric(&[2, 1, 0]);
        assert_eq!(p.get(0, 0), 30.0);
        assert_eq!(p.get(2, 2), 10.0);
        assert_eq!(p.get(2, 1), 2.0);
        assert_eq!(p.get(1, 2), 3.0);
        // permuting back restores
        assert_eq!(p.permute_symmetric(&[2, 1, 0]), a);
    }

    #[test]
    fn bandwidth_and_scale() {
        let a = sample();
        assert_eq!(a.bandwidth(), 1);
        let s = a.scaled(2.0);
        assert_eq!(s.get(1, 1), 40.0);
        assert_eq!(s.nnz(), a.nnz());
    }
}
