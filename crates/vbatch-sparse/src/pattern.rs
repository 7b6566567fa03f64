//! Block-sparsity pattern and level-set scheduling.
//!
//! [`BlockPattern`] coarsens a CSR matrix to the block level induced by
//! a [`BlockPartition`]: block `(i, j)` is present when any scalar entry
//! of `A` falls inside that block. Block-ILU(0) restricts its fill to
//! this pattern, and the global sparse triangular solves it introduces
//! are parallelized by [`LevelSchedule`] — the level-set ("topological
//! wavefront") scheduling of Ruipeng Li (*On Parallel Solution of Sparse
//! Triangular Linear Systems in CUDA*) and Chen/Liu/Yang (*Parallel
//! Triangular Solvers on GPU*): block row `i` is assigned level
//! `1 + max(level of its dependencies)`, and all rows of one level are
//! mutually independent.

use crate::blocking::BlockPartition;
use crate::csr::CsrMatrix;
use vbatch_core::Scalar;

/// The block-level sparsity pattern of a matrix under a block
/// partition, stored block-CSR (sorted unique block columns per block
/// row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPattern {
    nblocks: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Owning block of every scalar row/column
    /// ([`BlockPartition::row_to_block`]), kept so the passes that
    /// scatter `A` into this pattern do not search the partition again.
    block_of: Vec<usize>,
}

impl BlockPattern {
    /// Coarsen `a` to the block level of `part`.
    pub fn build<T: Scalar>(a: &CsrMatrix<T>, part: &BlockPartition) -> Self {
        assert_eq!(part.total(), a.nrows(), "partition must cover the matrix");
        let nb = part.len();
        let block_of = part.row_to_block();
        let mut row_ptr = Vec::with_capacity(nb + 1);
        let mut col_idx = Vec::new();
        // stamp[j] = block row that last saw block column j
        let mut stamp = vec![usize::MAX; nb];
        row_ptr.push(0);
        for i in 0..nb {
            let begin = col_idx.len();
            for r in part.range(i) {
                for &c in a.row_cols(r) {
                    let j = block_of[c];
                    if stamp[j] != i {
                        stamp[j] = i;
                        col_idx.push(j);
                    }
                }
            }
            col_idx[begin..].sort_unstable();
            row_ptr.push(col_idx.len());
        }
        BlockPattern {
            nblocks: nb,
            row_ptr,
            col_idx,
            block_of,
        }
    }

    /// Number of block rows (= columns; the pattern is square).
    pub fn len(&self) -> usize {
        self.nblocks
    }

    /// `true` for the empty pattern.
    pub fn is_empty(&self) -> bool {
        self.nblocks == 0
    }

    /// Number of present blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Sorted block columns of block row `i`.
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Block columns `j < i` of row `i` (the strict lower part).
    pub fn lower_cols(&self, i: usize) -> &[usize] {
        let row = self.row_cols(i);
        let split = row.partition_point(|&j| j < i);
        &row[..split]
    }

    /// Block columns `j > i` of row `i` (the strict upper part).
    pub fn upper_cols(&self, i: usize) -> &[usize] {
        let row = self.row_cols(i);
        let split = row.partition_point(|&j| j <= i);
        &row[split..]
    }

    /// Block owning scalar row/column `r` of the partition the pattern
    /// was built under (one table load).
    pub fn block_of(&self, r: usize) -> usize {
        self.block_of[r]
    }

    /// `true` when block `(i, j)` is present (binary search).
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row_cols(i).binary_search(&j).is_ok()
    }
}

/// Which triangle of a block pattern a schedule (or sweep) covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriKind {
    /// Strict lower triangle: row `i` depends on rows `j < i`.
    Lower,
    /// Strict upper triangle: row `i` depends on rows `j > i`.
    Upper,
}

/// A level-set schedule of one triangle of a [`BlockPattern`]: a
/// partition of the block rows into *levels* such that every row's
/// dependencies sit in strictly earlier levels. Rows of one level are
/// mutually independent and can be solved concurrently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSchedule {
    kind: TriKind,
    /// Level boundaries over `rows` (`ptr[l]..ptr[l+1]` is level `l`).
    ptr: Vec<usize>,
    /// Block rows grouped by level, ascending row index within a level.
    rows: Vec<usize>,
    /// Level of every block row.
    level_of: Vec<usize>,
}

impl LevelSchedule {
    /// Schedule the strict lower triangle of `pattern` (forward sweep).
    pub fn lower(pattern: &BlockPattern) -> Self {
        Self::build(pattern, TriKind::Lower)
    }

    /// Schedule the strict upper triangle of `pattern` (backward sweep).
    pub fn upper(pattern: &BlockPattern) -> Self {
        Self::build(pattern, TriKind::Upper)
    }

    fn build(pattern: &BlockPattern, kind: TriKind) -> Self {
        let nb = pattern.len();
        let mut level_of = vec![0usize; nb];
        let mut max_level = 0usize;
        // A row's dependencies all have smaller (Lower) / larger (Upper)
        // indices, so one pass in dependency order fixes every level.
        let order: Box<dyn Iterator<Item = usize>> = match kind {
            TriKind::Lower => Box::new(0..nb),
            TriKind::Upper => Box::new((0..nb).rev()),
        };
        for i in order {
            let deps = match kind {
                TriKind::Lower => pattern.lower_cols(i),
                TriKind::Upper => pattern.upper_cols(i),
            };
            let lvl = deps.iter().map(|&j| level_of[j] + 1).max().unwrap_or(0);
            level_of[i] = lvl;
            max_level = max_level.max(lvl);
        }
        let nlevels = if nb == 0 { 0 } else { max_level + 1 };
        let mut counts = vec![0usize; nlevels + 1];
        for &l in &level_of {
            counts[l + 1] += 1;
        }
        for l in 0..nlevels {
            counts[l + 1] += counts[l];
        }
        let ptr = counts.clone();
        let mut next = counts;
        let mut rows = vec![0usize; nb];
        // ascending row index within each level (stable fill)
        for (i, &l) in level_of.iter().enumerate() {
            rows[next[l]] = i;
            next[l] += 1;
        }
        LevelSchedule {
            kind,
            ptr,
            rows,
            level_of,
        }
    }

    /// The triangle this schedule covers.
    pub fn kind(&self) -> TriKind {
        self.kind
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// Block rows of level `l`, ascending row index.
    pub fn level(&self, l: usize) -> &[usize] {
        &self.rows[self.ptr[l]..self.ptr[l + 1]]
    }

    /// The level assigned to block row `i`.
    pub fn level_of(&self, i: usize) -> usize {
        self.level_of[i]
    }

    /// Total block rows covered (= number of block rows of the pattern).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Widest level (the available parallelism bound).
    pub fn max_width(&self) -> usize {
        (0..self.num_levels())
            .map(|l| self.level(l).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::gen::laplace::laplace_2d;

    fn block_tridiag(nb: usize, bs: usize) -> (CsrMatrix<f64>, BlockPartition) {
        let n = nb * bs;
        let mut c = CooMatrix::new(n, n);
        for b in 0..nb {
            for i in 0..bs {
                for j in 0..bs {
                    c.push(b * bs + i, b * bs + j, if i == j { 4.0 } else { 0.5 });
                }
                if b + 1 < nb {
                    c.push(b * bs + i, (b + 1) * bs + i, -1.0);
                    c.push((b + 1) * bs + i, b * bs + i, -1.0);
                }
            }
        }
        (c.to_csr(), BlockPartition::uniform(n, bs))
    }

    #[test]
    fn pattern_of_block_tridiagonal() {
        let (a, part) = block_tridiag(4, 3);
        let p = BlockPattern::build(&a, &part);
        assert_eq!(p.len(), 4);
        assert_eq!(p.nnz_blocks(), 10); // 4 diag + 3 sub + 3 super
        assert_eq!(p.row_cols(0), &[0, 1]);
        assert_eq!(p.row_cols(1), &[0, 1, 2]);
        assert_eq!(p.lower_cols(2), &[1]);
        assert_eq!(p.upper_cols(2), &[3]);
        assert!(p.contains(1, 2));
        assert!(!p.contains(0, 3));
    }

    #[test]
    fn tridiagonal_levels_are_a_chain() {
        let (a, part) = block_tridiag(5, 2);
        let p = BlockPattern::build(&a, &part);
        let lo = LevelSchedule::lower(&p);
        assert_eq!(lo.num_levels(), 5);
        for i in 0..5 {
            assert_eq!(lo.level_of(i), i);
        }
        let up = LevelSchedule::upper(&p);
        assert_eq!(up.num_levels(), 5);
        for i in 0..5 {
            assert_eq!(up.level_of(i), 4 - i);
        }
        assert_eq!(up.level(0), &[4]);
        assert_eq!(lo.max_width(), 1);
    }

    #[test]
    fn block_diagonal_collapses_to_one_level() {
        // no off-diagonal blocks: every row is level 0
        let n = 12;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
        }
        let a = c.to_csr();
        let part = BlockPartition::uniform(n, 3);
        let p = BlockPattern::build(&a, &part);
        let lo = LevelSchedule::lower(&p);
        assert_eq!(lo.num_levels(), 1);
        assert_eq!(lo.level(0), &[0, 1, 2, 3]);
        assert_eq!(lo.max_width(), 4);
    }

    #[test]
    fn schedules_are_topological_partitions() {
        let a = laplace_2d::<f64>(12, 12);
        let part = BlockPartition::uniform(144, 5);
        let p = BlockPattern::build(&a, &part);
        for sched in [LevelSchedule::lower(&p), LevelSchedule::upper(&p)] {
            // partition: every row appears exactly once
            let mut seen = vec![false; p.len()];
            for l in 0..sched.num_levels() {
                for &i in sched.level(l) {
                    assert!(!seen[i]);
                    seen[i] = true;
                    assert_eq!(sched.level_of(i), l);
                }
            }
            assert!(seen.iter().all(|&s| s));
            // topological: every dependency sits in a strictly earlier level
            for i in 0..p.len() {
                let deps = match sched.kind() {
                    TriKind::Lower => p.lower_cols(i),
                    TriKind::Upper => p.upper_cols(i),
                };
                for &j in deps {
                    assert!(sched.level_of(j) < sched.level_of(i), "{j} -> {i}");
                }
            }
        }
    }

    #[test]
    fn empty_matrix_schedules_cleanly() {
        let a = CsrMatrix::<f64>::from_raw(0, 0, vec![0], vec![], vec![]);
        let part = BlockPartition::from_ptr(vec![0]);
        let p = BlockPattern::build(&a, &part);
        assert!(p.is_empty());
        let s = LevelSchedule::lower(&p);
        assert_eq!(s.num_levels(), 0);
        assert_eq!(s.max_width(), 0);
    }
}
