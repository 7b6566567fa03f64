//! Sparse matrix–vector products — the workhorse of the Krylov solvers
//! (the paper's IDR(4) performs one SpMV plus one preconditioner
//! application per inner step).

use crate::csr::CsrMatrix;
use vbatch_core::Scalar;

/// Stored entries a thread must have to itself before an SpMV is split.
/// With the gate open and the workers polling, serial → split read
/// 1 216 nnz 1.8 → 1.7 µs, 2 784 2.4 → 2.5, 4 992 4.4 → 2.9, 81 408
/// 84 → 41 on the 2-vCPU host (EXPERIMENTS.md §M): the gate sits at
/// three times the break-even, where a share is 4 µs of streaming.
const SPMV_GRAIN_NNZ: usize = 4 * 1024;

/// `y = A x`. Above `SPMV_GRAIN_NNZ` entries per thread the rows are cut
/// into contiguous ranges of about equal nnz, one per pool thread; a row
/// is still reduced by one thread in entry order: the same bits.
pub fn spmv<T: Scalar>(a: &CsrMatrix<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    vbatch_rt::par::run_balanced(a.row_ptr(), y, SPMV_GRAIN_NNZ, &|rows, y| {
        for (r, out) in rows.zip(y) {
            let mut acc = T::ZERO;
            for (c, v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                acc = v.mul_add(x[*c], acc);
            }
            *out = acc;
        }
    });
}

/// `y = A x` into a fresh vector.
pub fn spmv_alloc<T: Scalar>(a: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
    let mut y = vec![T::ZERO; a.nrows()];
    spmv(a, x, &mut y);
    y
}

/// Residual `b - A x` into a fresh vector.
pub fn residual<T: Scalar>(a: &CsrMatrix<T>, x: &[T], b: &[T]) -> Vec<T> {
    let ax = spmv_alloc(a, x);
    b.iter().zip(ax).map(|(&bi, axi)| bi - axi).collect()
}

/// Euclidean norm.
pub fn nrm2<T: Scalar>(v: &[T]) -> T {
    v.iter().fold(T::ZERO, |acc, &x| x.mul_add(x, acc)).sqrt()
}

/// Dot product.
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(T::ZERO, |acc, (&x, &y)| x.mul_add(y, acc))
}

/// `y += alpha * x`.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = alpha.mul_add(xi, *yi);
    }
}

/// `y = x + beta * y` (in place on `y`).
pub fn xpby<T: Scalar>(x: &[T], beta: T, y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = beta.mul_add(*yi, xi);
    }
}

/// `v *= alpha`.
pub fn scal<T: Scalar>(alpha: T, v: &mut [T]) {
    for x in v.iter_mut() {
        *x *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        let mut c = CooMatrix::new(3, 3);
        c.push(0, 0, 2.0);
        c.push(0, 2, 1.0);
        c.push(1, 1, 3.0);
        c.push(2, 0, -1.0);
        c.push(2, 2, 4.0);
        c.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = vec![1.0, 2.0, -1.0];
        let y = spmv_alloc(&a, &x);
        let yd = d.matvec(&x);
        assert_eq!(y, yd);
    }

    #[test]
    fn split_rows_are_bit_identical_to_the_serial_loop() {
        // a ragged pentadiagonal-ish matrix above the grain on any host
        // with two threads: row r holds 1 + r % 9 entries
        let n = 8 * SPMV_GRAIN_NNZ / 5;
        let mut c = CooMatrix::new(n, n);
        for r in 0..n {
            for k in 0..1 + r % 9 {
                let col = (r * 7 + k * 131) % n;
                c.push(r, col, 0.5 + ((r + 3 * k) % 17) as f64 / 7.0);
            }
        }
        let a = c.to_csr();
        assert!(a.nnz() >= 4 * SPMV_GRAIN_NNZ);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 / 3.0 - 4.0).collect();
        let mut serial = vec![0.0; n];
        for r in 0..n {
            for (col, v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                serial[r] = v.mul_add(x[*col], serial[r]);
            }
        }
        let mut y = vec![f64::NAN; n];
        spmv(&a, &x, &mut y);
        assert!(serial
            .iter()
            .zip(&y)
            .all(|(s, y)| s.to_bits() == y.to_bits()));
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = sample();
        let x = vec![1.0, 1.0, 1.0];
        let b = spmv_alloc(&a, &x);
        let r = residual(&a, &x, &b);
        assert!(nrm2(&r) == 0.0);
    }

    #[test]
    fn blas1_helpers() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);
        xpby(&[1.0, 1.0], 0.5, &mut y);
        assert_eq!(y, vec![4.5, 6.0]);
        scal(2.0, &mut y);
        assert_eq!(y, vec![9.0, 12.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }
}
