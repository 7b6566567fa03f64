//! Diagonal-block extraction (CPU reference of the paper's §III-C
//! kernel): gather the dense diagonal blocks defined by a
//! [`BlockPartition`] out of a CSR matrix into a variable-size
//! [`MatrixBatch`].

use crate::blocking::BlockPartition;
use crate::csr::CsrMatrix;
use vbatch_core::{MatrixBatch, Scalar};
use vbatch_rt::par::par_map_vec;

/// Extract the diagonal blocks of `a` given by `part` into a batch of
/// dense column-major blocks. Positions absent from the sparsity
/// pattern are zero.
pub fn extract_diag_blocks<T: Scalar>(a: &CsrMatrix<T>, part: &BlockPartition) -> MatrixBatch<T> {
    assert_eq!(part.total(), a.nrows(), "partition must cover the matrix");
    let _span = vbatch_rt::span!("sparse.extract", part.len());
    let mut batch = MatrixBatch::zeros(&part.sizes());
    let blocks: Vec<_> = batch.blocks_mut().into_iter().enumerate().collect();
    par_map_vec(blocks, |(b, (bs, data))| {
        let start = part.as_ptr()[b];
        for r in 0..bs {
            let row = start + r;
            for (c, v) in a.row_cols(row).iter().zip(a.row_vals(row)) {
                if *c >= start && *c < start + bs {
                    data[(*c - start) * bs + r] = *v;
                }
            }
        }
    });
    batch
}

/// Fraction of the matrix nonzeros captured by the diagonal blocks —
/// a quality measure for a block partition.
pub fn block_coverage<T: Scalar>(a: &CsrMatrix<T>, part: &BlockPartition) -> f64 {
    assert_eq!(part.total(), a.nrows());
    let mut inside = 0usize;
    for b in 0..part.len() {
        let r = part.range(b);
        for row in r.clone() {
            inside += a
                .row_cols(row)
                .iter()
                .filter(|&&c| c >= r.start && c < r.end)
                .count();
        }
    }
    if a.nnz() == 0 {
        1.0
    } else {
        inside as f64 / a.nnz() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        // 5x5; blocks [0..2), [2..5)
        let mut c = CooMatrix::new(5, 5);
        c.push(0, 0, 1.0);
        c.push(0, 1, 2.0);
        c.push(0, 4, 9.0); // outside
        c.push(1, 1, 3.0);
        c.push(2, 2, 4.0);
        c.push(2, 4, 5.0);
        c.push(3, 0, 8.0); // outside
        c.push(3, 3, 6.0);
        c.push(4, 2, 7.0);
        c.push(4, 4, 10.0);
        c.to_csr()
    }

    #[test]
    fn extraction_matches_expected_blocks() {
        let a = sample();
        let part = BlockPartition::from_ptr(vec![0, 2, 5]);
        let batch = extract_diag_blocks(&a, &part);
        assert_eq!(batch.len(), 2);
        let b0 = batch.block_as_mat(0);
        assert_eq!(b0[(0, 0)], 1.0);
        assert_eq!(b0[(0, 1)], 2.0);
        assert_eq!(b0[(1, 0)], 0.0);
        assert_eq!(b0[(1, 1)], 3.0);
        let b1 = batch.block_as_mat(1);
        assert_eq!(b1[(0, 0)], 4.0);
        assert_eq!(b1[(0, 2)], 5.0);
        assert_eq!(b1[(1, 1)], 6.0);
        assert_eq!(b1[(2, 0)], 7.0);
        assert_eq!(b1[(2, 2)], 10.0);
        // outside entries ignored
        assert_eq!(b1[(1, 0)], 0.0);
    }

    #[test]
    fn extraction_agrees_with_dense_slicing() {
        let a = sample();
        let d = a.to_dense();
        let part = BlockPartition::uniform(5, 3);
        let batch = extract_diag_blocks(&a, &part);
        for b in 0..part.len() {
            let r = part.range(b);
            let m = batch.block_as_mat(b);
            for (bi, i) in r.clone().enumerate() {
                for (bj, j) in r.clone().enumerate() {
                    assert_eq!(m[(bi, bj)], d[(i, j)], "block {b} ({bi},{bj})");
                }
            }
        }
    }

    #[test]
    fn coverage_measures_inside_fraction() {
        let a = sample();
        let part = BlockPartition::from_ptr(vec![0, 2, 5]);
        // 8 of 10 entries are inside the two blocks
        assert!((block_coverage(&a, &part) - 0.8).abs() < 1e-12);
        let whole = BlockPartition::from_ptr(vec![0, 5]);
        assert_eq!(block_coverage(&a, &whole), 1.0);
    }

    #[test]
    fn size_one_blocks_pick_the_diagonal() {
        let a = sample();
        let part = BlockPartition::uniform(5, 1);
        let batch = extract_diag_blocks(&a, &part);
        assert_eq!(batch.len(), 5);
        let diag = a.diagonal();
        for (b, &d) in diag.iter().enumerate() {
            assert_eq!(batch.block(b), &[d]);
        }
    }
}
