//! Supervariable blocking (§II-A).
//!
//! Variables that share the same column-nonzero pattern — e.g. the
//! multiple unknowns of one finite element node — form a *supervariable*.
//! The blocking pass detects maximal runs of consecutive rows with
//! identical sparsity pattern and then agglomerates *adjacent*
//! supervariables into diagonal blocks, never exceeding the user's upper
//! bound for the block size. The result is the variable-size block
//! partition that drives the batched factorization.

use crate::csr::CsrMatrix;
use vbatch_core::Scalar;

/// A block partition of `0..n`, stored as boundaries
/// `ptr[0]=0 < ptr[1] < … < ptr[nblocks]=n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    ptr: Vec<usize>,
}

impl BlockPartition {
    /// Build from raw boundaries; validates shape.
    pub fn from_ptr(ptr: Vec<usize>) -> Self {
        assert!(!ptr.is_empty(), "partition needs at least [0]");
        assert_eq!(ptr[0], 0, "partition must start at 0");
        for w in ptr.windows(2) {
            assert!(w[0] < w[1], "blocks must be non-empty and ordered");
        }
        BlockPartition { ptr }
    }

    /// Uniform partition of `0..n` into blocks of at most `bs`.
    pub fn uniform(n: usize, bs: usize) -> Self {
        assert!(bs > 0);
        let mut ptr = vec![0usize];
        let mut at = 0;
        while at < n {
            at = (at + bs).min(n);
            ptr.push(at);
        }
        BlockPartition { ptr }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    /// `true` for the empty partition of `n = 0`.
    pub fn is_empty(&self) -> bool {
        self.ptr.len() == 1
    }

    /// Boundary array (`len() + 1` entries).
    pub fn as_ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// Half-open row range of block `b`.
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.ptr[b]..self.ptr[b + 1]
    }

    /// Size of block `b`.
    pub fn size(&self, b: usize) -> usize {
        self.ptr[b + 1] - self.ptr[b]
    }

    /// All block sizes.
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.len()).map(|b| self.size(b)).collect()
    }

    /// Total number of rows covered.
    pub fn total(&self) -> usize {
        *self
            .ptr
            .last()
            .expect("partition ptr holds at least [0] by construction")
    }

    /// Largest block.
    pub fn max_size(&self) -> usize {
        (0..self.len()).map(|b| self.size(b)).max().unwrap_or(0)
    }

    /// Block index owning row `r` (binary search).
    pub fn block_of(&self, r: usize) -> usize {
        debug_assert!(r < self.total());
        match self.ptr.binary_search(&r) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    }

    /// The owning block of every row, as a table: `table[r] ==
    /// block_of(r)`. Passes that classify every nonzero of a matrix
    /// build it once (`O(total)`) and pay one load per nonzero instead
    /// of one binary search.
    pub fn row_to_block(&self) -> Vec<usize> {
        let mut table = Vec::with_capacity(self.total());
        for b in 0..self.len() {
            table.resize(self.ptr[b + 1], b);
        }
        table
    }
}

/// Detect supervariables: maximal runs of consecutive rows with equal
/// sparsity pattern. Returns the supervariable boundary vector.
pub fn find_supervariables<T: Scalar>(a: &CsrMatrix<T>) -> BlockPartition {
    let n = a.nrows();
    let mut ptr = vec![0usize];
    let mut run_start = 0usize;
    for r in 1..n {
        if a.row_cols(r) != a.row_cols(run_start) {
            ptr.push(r);
            run_start = r;
        }
    }
    if n > 0 {
        ptr.push(n);
    }
    BlockPartition::from_ptr(ptr)
}

/// Supervariable blocking: detect supervariables and agglomerate
/// adjacent ones into diagonal blocks of size at most `max_bs`.
/// Supervariables larger than `max_bs` are split.
pub fn supervariable_blocking<T: Scalar>(a: &CsrMatrix<T>, max_bs: usize) -> BlockPartition {
    assert!(max_bs > 0);
    let sv = find_supervariables(a);
    let n = a.nrows();
    let mut ptr = vec![0usize];
    let mut cur = 0usize; // current block start
    for b in 0..sv.len() {
        let (s, e) = (sv.as_ptr()[b], sv.as_ptr()[b + 1]);
        let sv_size = e - s;
        if sv_size > max_bs {
            // flush the running block, then split the oversized
            // supervariable into max_bs chunks
            if s > cur {
                ptr.push(s);
            }
            let mut at = s;
            while at + max_bs < e {
                at += max_bs;
                ptr.push(at);
            }
            cur = *ptr.last().expect("ptr starts as [0] and only grows");
            continue;
        }
        if e - cur > max_bs {
            // adding this supervariable would overflow: close the block
            ptr.push(s);
            cur = s;
        }
    }
    if n > 0 && *ptr.last().expect("ptr starts as [0] and only grows") != n {
        ptr.push(n);
    }
    BlockPartition::from_ptr(ptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Matrix with 2-variable supervariables: rows 2k and 2k+1 share
    /// their pattern (a block-tridiagonal of 2x2 blocks).
    fn block_matrix(nodes: usize, dof: usize) -> CsrMatrix<f64> {
        let n = nodes * dof;
        let mut c = CooMatrix::new(n, n);
        for node in 0..nodes {
            for i in 0..dof {
                for j in 0..dof {
                    c.push(
                        node * dof + i,
                        node * dof + j,
                        if i == j { 4.0 } else { 0.5 },
                    );
                }
                if node + 1 < nodes {
                    for j in 0..dof {
                        c.push(node * dof + i, (node + 1) * dof + j, -1.0);
                        c.push((node + 1) * dof + i, node * dof + j, -1.0);
                    }
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn partition_basics() {
        let p = BlockPartition::uniform(10, 4);
        assert_eq!(p.as_ptr(), &[0, 4, 8, 10]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.sizes(), vec![4, 4, 2]);
        assert_eq!(p.max_size(), 4);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(7), 1);
        assert_eq!(p.block_of(9), 2);
        assert_eq!(p.row_to_block(), vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        assert_eq!(p.range(1), 4..8);
    }

    #[test]
    #[should_panic]
    fn invalid_partition_rejected() {
        let _ = BlockPartition::from_ptr(vec![0, 3, 3, 5]);
    }

    #[test]
    fn supervariables_detected() {
        let a = block_matrix(5, 3); // 5 nodes of 3 dofs
        let sv = find_supervariables(&a);
        assert_eq!(sv.sizes(), vec![3, 3, 3, 3, 3]);
    }

    #[test]
    fn agglomeration_respects_upper_bound() {
        let a = block_matrix(6, 2); // supervariables of size 2
        for max_bs in [2usize, 3, 4, 5, 6, 8] {
            let p = supervariable_blocking(&a, max_bs);
            assert_eq!(p.total(), 12);
            assert!(p.max_size() <= max_bs, "bound {max_bs}: {:?}", p.as_ptr());
            // supervariables must never be split when they fit
            for b in 0..p.len() {
                assert_eq!(p.size(b) % 2, 0, "bound {max_bs} split a supervariable");
            }
        }
    }

    #[test]
    fn agglomeration_packs_adjacent_supervariables() {
        let a = block_matrix(6, 2);
        let p = supervariable_blocking(&a, 4);
        // pairs of 2-dof supervariables should merge into 4s
        assert_eq!(p.sizes(), vec![4, 4, 4]);
    }

    #[test]
    fn oversized_supervariable_is_split() {
        // a dense 6x6 block has one supervariable of size 6
        let mut c = CooMatrix::new(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                c.push(i, j, 1.0 + (i == j) as i32 as f64);
            }
        }
        let a = c.to_csr();
        let p = supervariable_blocking(&a, 4);
        assert_eq!(p.total(), 6);
        assert!(p.max_size() <= 4);
        assert_eq!(p.sizes(), vec![4, 2]);
    }

    #[test]
    fn scalar_matrix_gives_scalar_supervariables_that_agglomerate() {
        // tridiagonal: every row pattern differs from its neighbor
        let mut c = CooMatrix::new(8, 8);
        for i in 0..8usize {
            c.push(i, i, 2.0);
            if i + 1 < 8 {
                c.push(i, i + 1, -1.0);
                c.push(i + 1, i, -1.0);
            }
        }
        let a = c.to_csr();
        let sv = find_supervariables(&a);
        assert_eq!(sv.len(), 8);
        let p = supervariable_blocking(&a, 3);
        assert!(p.max_size() <= 3);
        assert_eq!(p.total(), 8);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::<f64>::from_raw(0, 0, vec![0], vec![], vec![]);
        let p = supervariable_blocking(&a, 4);
        assert!(p.is_empty());
        assert_eq!(p.total(), 0);
    }
}
