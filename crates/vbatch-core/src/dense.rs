//! Small dense matrices in column-major ("Fortran") layout.
//!
//! The paper's kernels operate on diagonal blocks of order 4–32, so the
//! owning type here is a plain `Vec`-backed column-major matrix with a
//! handful of helpers the factorization kernels need (views, norms,
//! residual checks). Column-major is the layout assumed throughout the
//! paper: the "eager" triangular solve reads one *column* per step and is
//! coalesced precisely because of this storage choice (§III-B).

use crate::scalar::Scalar;
use std::fmt;

/// Owning column-major dense matrix.
#[derive(Clone, PartialEq)]
pub struct DenseMat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMat<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a column-major slice. Panics if the length mismatches.
    pub fn from_col_major(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Build from a row-major slice (convenient in tests and literals).
    pub fn from_row_major(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols);
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = data[i * cols + j];
            }
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow column `j` as a slice (contiguous in column-major layout).
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Dense matrix–matrix product `self * other` (reference quality;
    /// only used on tiny blocks in tests and residual checks).
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Self::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let b = other[(k, j)];
                if b == T::ZERO {
                    continue;
                }
                let col_k = self.col(k);
                let out_j = out.col_mut(j);
                for i in 0..self.rows {
                    out_j[i] = col_k[i].mul_add(b, out_j[i]);
                }
            }
        }
        out
    }

    /// Dense matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![T::ZERO; self.rows];
        for j in 0..self.cols {
            let xj = x[j];
            if xj == T::ZERO {
                continue;
            }
            for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                *yi = aij.mul_add(xj, *yi);
            }
        }
        y
    }

    /// Elementwise subtraction `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Max-norm (largest absolute entry).
    pub fn norm_max(&self) -> T {
        self.data
            .iter()
            .fold(T::ZERO, |acc, &v| Scalar::max(acc, v.abs()))
    }

    /// Infinity norm (max row sum of absolute values).
    pub fn norm_inf(&self) -> T {
        let mut best = T::ZERO;
        for i in 0..self.rows {
            let mut s = T::ZERO;
            for j in 0..self.cols {
                s += self[(i, j)].abs();
            }
            best = Scalar::max(best, s);
        }
        best
    }

    /// Extract the unit-lower-triangular factor stored in a combined LU
    /// in-place factorization (ones on the diagonal, strictly lower part
    /// from `self`).
    pub fn unit_lower(&self) -> Self {
        assert!(self.is_square());
        Self::from_fn(self.rows, self.cols, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                self[(i, j)]
            } else {
                T::ZERO
            }
        })
    }

    /// Extract the upper-triangular factor stored in a combined LU
    /// in-place factorization.
    pub fn upper(&self) -> Self {
        assert!(self.is_square());
        Self::from_fn(self.rows, self.cols, |i, j| {
            if i <= j {
                self[(i, j)]
            } else {
                T::ZERO
            }
        })
    }

    /// Row-permuted copy: row `i` of the output is row `perm[i]` of `self`.
    pub fn permute_rows(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.rows);
        Self::from_fn(self.rows, self.cols, |i, j| self[(perm[i], j)])
    }

    /// Swap rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let base = j * self.rows;
            self.data.swap(base + a, base + b);
        }
    }

    /// Swap columns `a` and `b` in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.rows {
            self.data.swap(a * self.rows + i, b * self.rows + i);
        }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

impl<T: Scalar> fmt::Debug for DenseMat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Reference residual `max |P A - L U|` for a combined in-place LU
/// factorization with row permutation `perm` (row `k` of `PA` is row
/// `perm[k]` of `A`).
pub fn lu_residual<T: Scalar>(a: &DenseMat<T>, lu: &DenseMat<T>, perm: &[usize]) -> T {
    let pa = a.permute_rows(perm);
    let rec = lu.unit_lower().matmul(&lu.upper());
    pa.sub(&rec).norm_max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMat<f64> {
        DenseMat::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn indexing_is_column_major() {
        let m = sample();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(0, 2)], 3.0);
        // column 0 is contiguous
        assert_eq!(m.col(0), &[1.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn from_col_major_roundtrip() {
        let m = sample();
        let m2 = DenseMat::from_col_major(2, 3, m.as_slice());
        assert_eq!(m, m2);
    }

    #[test]
    #[should_panic]
    fn from_col_major_wrong_len_panics() {
        let _ = DenseMat::<f64>::from_col_major(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = DenseMat::from_row_major(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 10.]);
        let i = DenseMat::identity(3);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = DenseMat::from_row_major(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 10.]);
        let x = vec![1.0, -1.0, 2.0];
        let xm = DenseMat::from_col_major(3, 1, &x);
        let y = m.matvec(&x);
        let ym = m.matmul(&xm);
        for i in 0..3 {
            assert_eq!(y[i], ym[(i, 0)]);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn norms() {
        let m = DenseMat::from_row_major(2, 2, &[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(m.norm_max(), 4.0);
        assert_eq!(m.norm_inf(), 7.0);
    }

    #[test]
    fn row_permutation() {
        let m = DenseMat::from_row_major(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let p = m.permute_rows(&[2, 0, 1]);
        assert_eq!(
            p,
            DenseMat::from_row_major(3, 3, &[7., 8., 9., 1., 2., 3., 4., 5., 6.])
        );
    }

    #[test]
    fn swap_rows_cols() {
        let mut m = DenseMat::from_row_major(2, 2, &[1., 2., 3., 4.]);
        m.swap_rows(0, 1);
        assert_eq!(m, DenseMat::from_row_major(2, 2, &[3., 4., 1., 2.]));
        m.swap_cols(0, 1);
        assert_eq!(m, DenseMat::from_row_major(2, 2, &[4., 3., 2., 1.]));
        // self-swap is a no-op
        let before = m.clone();
        m.swap_rows(1, 1);
        m.swap_cols(0, 0);
        assert_eq!(m, before);
    }

    #[test]
    fn lower_upper_extraction_reconstructs() {
        // a matrix that is already in combined LU form
        let lu = DenseMat::from_row_major(2, 2, &[2.0, 4.0, 0.5, 1.0]);
        let l = lu.unit_lower();
        let u = lu.upper();
        assert_eq!(l[(0, 0)], 1.0);
        assert_eq!(l[(1, 0)], 0.5);
        assert_eq!(u[(0, 1)], 4.0);
        assert_eq!(u[(1, 0)], 0.0);
        let a = l.matmul(&u);
        assert_eq!(a[(1, 1)], 3.0); // 0.5*4 + 1*1
    }
}
