//! Global block triangular factors and their level-scheduled sweeps —
//! the off-diagonal half of block-ILU(0).
//!
//! [`BlockTriangular`] stores one strict triangle of a block matrix in
//! block-CSR form (variable-size column-major blocks). Its *sweep*
//! accumulates `v_i := v_i − Σ_j A_ij v_j` over the stored blocks of
//! every block row — the eager (AXPY-style) form of the global sparse
//! triangular solve once the diagonal contribution is handled
//! separately (unit diagonal for `L`, the batched prepared solve for
//! `D`). Rows are processed either in natural dependency order
//! ([`BlockTriangular::sweep_sequential`]) or level by level through a
//! [`LevelSchedule`]; the two are bitwise identical because a row's
//! per-entry accumulation order (ascending block column) never changes
//! — only the interleaving of *independent* rows does. That identity is
//! what lets `CpuSimd` parallelize inside a level without perturbing
//! results.
//!
//! Like the prepared apply, the sweep is steady-state Krylov traffic:
//! this module is covered by the zero-allocation tripwire, and the
//! sweeps perform no heap allocation (construction is the one audited
//! exception).
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::apply::{FlatVecPtr, APPLY_GRAIN_ELEMS};
use std::ops::Range;
use vbatch_core::{gemv_neg_acc, Scalar};
use vbatch_rt::par::shares;
use vbatch_sparse::{BlockPartition, BlockPattern, CsrMatrix, LevelSchedule, TriKind};

/// One strict block triangle of a sparse matrix under a block
/// partition: block-CSR structure over variable-size column-major
/// dense blocks.
pub struct BlockTriangular<T> {
    kind: TriKind,
    /// Scalar offset of every block row (a copy of the partition ptr).
    part_ptr: Vec<usize>,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Start of each entry's dense block in `data`.
    data_off: Vec<usize>,
    data: Vec<T>,
    /// Nominal flops of one full sweep (2·m·k per stored block).
    flops: f64,
}

impl<T: Scalar> BlockTriangular<T> {
    /// Extract the strict `kind` triangle of `a` at the block
    /// granularity of `part`, keeping exactly the blocks present in
    /// `pattern` (the ILU(0) fill constraint).
    // setup-time: the block-CSR structure and data are allocated here, once
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn extract(
        kind: TriKind,
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        pattern: &BlockPattern,
    ) -> Self {
        assert_eq!(part.total(), a.nrows(), "partition must cover the matrix");
        assert_eq!(pattern.len(), part.len(), "pattern must match partition");
        let nb = part.len();
        let part_ptr = part.as_ptr().to_vec();
        let mut row_ptr = Vec::with_capacity(nb + 1);
        let mut col_idx = Vec::new();
        let mut data_off = Vec::new();
        row_ptr.push(0);
        let mut total = 0usize;
        let mut flops = 0.0f64;
        for i in 0..nb {
            let cols = match kind {
                TriKind::Lower => pattern.lower_cols(i),
                TriKind::Upper => pattern.upper_cols(i),
            };
            for &j in cols {
                col_idx.push(j);
                data_off.push(total);
                total += part.size(i) * part.size(j);
                flops += 2.0 * (part.size(i) * part.size(j)) as f64;
            }
            row_ptr.push(col_idx.len());
        }
        let mut data = vec![T::ZERO; total];
        // entry_of[j] = entry of block (i, j) while block row i is
        // scattered, usize::MAX for a block column outside the row
        let mut entry_of = vec![usize::MAX; nb];
        for i in 0..nb {
            let m = part.size(i);
            let row0 = part_ptr[i];
            for e in row_ptr[i]..row_ptr[i + 1] {
                entry_of[col_idx[e]] = e;
            }
            for r in part.range(i) {
                let lr = r - row0;
                for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                    let j = pattern.block_of(c);
                    let keep = match kind {
                        TriKind::Lower => j < i,
                        TriKind::Upper => j > i,
                    };
                    if !keep {
                        continue;
                    }
                    let e = entry_of[j];
                    assert!(e != usize::MAX, "pattern covers every stored entry");
                    let lc = c - part_ptr[j];
                    data[data_off[e] + lc * m + lr] = v;
                }
            }
            for e in row_ptr[i]..row_ptr[i + 1] {
                entry_of[col_idx[e]] = usize::MAX;
            }
        }
        BlockTriangular {
            kind,
            part_ptr,
            row_ptr,
            col_idx,
            data_off,
            data,
            flops,
        }
    }

    /// The triangle this factor covers.
    pub fn kind(&self) -> TriKind {
        self.kind
    }

    /// Number of block rows.
    pub fn num_block_rows(&self) -> usize {
        self.part_ptr.len().saturating_sub(1)
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Total scalar dimension.
    pub fn dim(&self) -> usize {
        self.part_ptr.last().copied().unwrap_or(0)
    }

    /// Entry range of block row `i`.
    pub fn row_entries(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Block column of entry `e`.
    pub fn col_of(&self, e: usize) -> usize {
        self.col_idx[e]
    }

    /// Entry index of block `(i, j)`, if stored.
    pub fn entry_index(&self, i: usize, j: usize) -> Option<usize> {
        let row = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        row.binary_search(&j).ok().map(|p| self.row_ptr[i] + p)
    }

    /// Dense data of entry `e` (column-major, `size_i × size_j` where
    /// `i` is the owning block row and `j = col_of(e)`).
    pub fn block_data(&self, e: usize) -> &[T] {
        &self.data[self.data_off[e]..self.data_start(e + 1)]
    }

    /// Mutable dense data of entry `e`.
    pub fn block_data_mut(&mut self, e: usize) -> &mut [T] {
        let end = self.data_start(e + 1);
        &mut self.data[self.data_off[e]..end]
    }

    /// Start of entry `e`'s block in `data`; the end of `data` for the
    /// one-past-the-last entry.
    fn data_start(&self, e: usize) -> usize {
        self.data_off.get(e).copied().unwrap_or(self.data.len())
    }

    /// Mutable dense data of the whole block row `i`: its stored blocks
    /// lie back to back in ascending block column, so together they are
    /// one column-major `size_i × Σ size_j` panel.
    pub fn row_data_mut(&mut self, i: usize) -> &mut [T] {
        let (start, end) = (
            self.data_start(self.row_ptr[i]),
            self.data_start(self.row_ptr[i + 1]),
        );
        &mut self.data[start..end]
    }

    /// Nominal flops of one full sweep.
    pub fn sweep_flops(&self) -> f64 {
        self.flops
    }

    /// Accumulate block row `i` into `v`:
    /// `v_i := v_i − Σ_j A_ij v_j` over the stored entries of the row,
    /// ascending block column. Allocation-free.
    pub fn sweep_row(&self, i: usize, v: &mut [T]) {
        let oi = self.part_ptr[i];
        let m = self.part_ptr[i + 1] - oi;
        for e in self.row_entries(i) {
            let j = self.col_idx[e];
            let oj = self.part_ptr[j];
            let k = self.part_ptr[j + 1] - oj;
            let block = &self.data[self.data_off[e]..self.data_off[e] + m * k];
            // strict triangle ⇒ i ≠ j ⇒ the two segments are disjoint
            let (x, y) = if oj < oi {
                let (lo, hi) = v.split_at_mut(oi);
                (&lo[oj..oj + k], &mut hi[..m])
            } else {
                let (lo, hi) = v.split_at_mut(oj);
                (&hi[..k], &mut lo[oi..oi + m])
            };
            gemv_neg_acc(m, k, block, x, y);
        }
    }

    /// Full sweep in natural dependency order: ascending rows for
    /// `Lower`, descending for `Upper`. The bitwise reference for the
    /// level-scheduled forms.
    pub fn sweep_sequential(&self, v: &mut [T]) {
        debug_assert_eq!(v.len(), self.dim());
        let nb = self.num_block_rows();
        match self.kind {
            TriKind::Lower => {
                for i in 0..nb {
                    self.sweep_row(i, v);
                }
            }
            TriKind::Upper => {
                for i in (0..nb).rev() {
                    self.sweep_row(i, v);
                }
            }
        }
    }

    /// Full sweep level by level, rows of each level in ascending
    /// order. Bitwise identical to [`Self::sweep_sequential`]: each
    /// row's dependencies are complete before its level starts, and the
    /// within-row accumulation order is unchanged.
    pub fn sweep_levels(&self, sched: &LevelSchedule, v: &mut [T]) {
        debug_assert_eq!(sched.kind(), self.kind);
        debug_assert_eq!(sched.num_rows(), self.num_block_rows());
        for l in 0..sched.num_levels() {
            for &i in sched.level(l) {
                self.sweep_row(i, v);
            }
        }
    }

    /// Level-by-level sweep with the rows of each level distributed
    /// over the thread pool. Rows of one level write disjoint segments
    /// and read only earlier-level segments, so the result is bitwise
    /// identical to the sequential forms.
    ///
    /// A level goes parallel only when its stored blocks hold
    /// `APPLY_GRAIN_ELEMS` per thread — a work gate, not a width gate:
    /// the long-chain schedules of banded and FEM patterns are hundreds
    /// of levels one or two rows wide, a few microseconds each, where a
    /// round trip per level costs more than it returns (EXPERIMENTS.md §M).
    /// Circuit patterns cross it: their power-law rows put several heavy
    /// block rows in one level — up to 830 k block elements in 8 rows in
    /// the 48-problem suite (EXPERIMENTS.md §O).
    pub fn sweep_levels_parallel(&self, sched: &LevelSchedule, v: &mut [T]) {
        debug_assert_eq!(sched.kind(), self.kind);
        for l in 0..sched.num_levels() {
            let rows = sched.level(l);
            let start = |i: usize| self.data_start(self.row_ptr[i]);
            let work = rows.iter().map(|&i| start(i + 1) - start(i)).sum();
            let parts = shares(work, APPLY_GRAIN_ELEMS).min(rows.len());
            if parts <= 1 {
                rows.iter().for_each(|&i| self.sweep_row(i, v));
                continue;
            }
            let ptr = FlatVecPtr::new(v);
            vbatch_rt::par::run(&|thread, _| {
                let cut = |t: usize| rows.len() * t.min(parts) / parts;
                for &i in &rows[cut(thread)..cut(thread + 1)] {
                    // SAFETY: rows of one level are mutually independent
                    // (LevelSchedule invariant): each writes only its own
                    // segment and reads segments finalized in earlier
                    // levels, so concurrent reborrows never alias a write.
                    let view = unsafe { ptr.slice() };
                    self.sweep_row(i, view);
                }
            });
        }
    }

    /// Zero every stored block containing a non-finite value (the
    /// off-diagonal analogue of the diagonal scalar-Jacobi fallback: a
    /// zeroed coupling block degrades the preconditioner toward
    /// block-Jacobi instead of poisoning every downstream row). Returns
    /// the number of blocks zeroed.
    pub fn sanitize_non_finite(&mut self) -> usize {
        let mut zeroed = 0;
        for e in 0..self.col_idx.len() {
            let block = self.block_data_mut(e);
            if block.iter().any(|x| !x.is_finite()) {
                block.fill(T::ZERO);
                zeroed += 1;
            }
        }
        zeroed
    }
}

/// Shared CPU sweep driver: level-scheduled execution (parallel within
/// a level when `parallel`), phase timing and flops. Allocation-free.
pub(crate) fn sweep_cpu<T: Scalar>(
    tri: &BlockTriangular<T>,
    sched: &LevelSchedule,
    v: &mut [T],
    parallel: bool,
    stats: &mut crate::stats::ExecStats,
) {
    debug_assert_eq!(v.len(), tri.dim(), "sweep vector does not match factor");
    let _span = vbatch_rt::span!("exec.sweep", tri.nnz_blocks());
    let t0 = std::time::Instant::now();
    if parallel {
        tri.sweep_levels_parallel(sched, v);
    } else {
        tri.sweep_levels(sched, v);
    }
    stats.add_flops(tri.sweep_flops());
    stats.add_phase(crate::stats::Phase::Sweep, t0.elapsed());
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_sparse::gen::laplace::laplace_2d;

    fn setup(
        kind: TriKind,
    ) -> (
        BlockTriangular<f64>,
        LevelSchedule,
        CsrMatrix<f64>,
        BlockPartition,
    ) {
        let a = laplace_2d::<f64>(10, 9);
        let part = BlockPartition::uniform(90, 7);
        let pattern = BlockPattern::build(&a, &part);
        let tri = BlockTriangular::extract(kind, &a, &part, &pattern);
        let sched = match kind {
            TriKind::Lower => LevelSchedule::lower(&pattern),
            TriKind::Upper => LevelSchedule::upper(&pattern),
        };
        (tri, sched, a, part)
    }

    #[test]
    fn extract_keeps_exactly_the_strict_triangle() {
        for kind in [TriKind::Lower, TriKind::Upper] {
            let (tri, _, a, part) = setup(kind);
            assert_eq!(tri.dim(), 90);
            // reconstruct A restricted to the strict triangle and compare
            let dense = a.to_dense();
            for i in 0..part.len() {
                for e in tri.row_entries(i) {
                    let j = tri.col_of(e);
                    match kind {
                        TriKind::Lower => assert!(j < i),
                        TriKind::Upper => assert!(j > i),
                    }
                    let (m, k) = (part.size(i), part.size(j));
                    let block = tri.block_data(e);
                    for c in 0..k {
                        for r in 0..m {
                            let expect = dense[(part.range(i).start + r, part.range(j).start + c)];
                            assert_eq!(block[c * m + r], expect);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_is_the_unit_triangular_substitution() {
        // Processing rows in dependency order makes the sweep the
        // substitution solve of (I + T) v = x with T the strict block
        // triangle.
        for kind in [TriKind::Lower, TriKind::Upper] {
            let (tri, _, a, part) = setup(kind);
            let x: Vec<f64> = (0..90).map(|i| (i % 13) as f64 / 3.0 - 2.0).collect();
            let mut v = x.clone();
            tri.sweep_sequential(&mut v);
            // scalar reference substitution over the dense matrix,
            // block rows in the same dependency order
            let dense = a.to_dense();
            let mut r = x;
            let order: Vec<usize> = match kind {
                TriKind::Lower => (0..part.len()).collect(),
                TriKind::Upper => (0..part.len()).rev().collect(),
            };
            for &i in &order {
                for row in part.range(i) {
                    let mut acc = r[row];
                    for j in 0..part.len() {
                        let keep = match kind {
                            TriKind::Lower => j < i,
                            TriKind::Upper => j > i,
                        };
                        if !keep {
                            continue;
                        }
                        for c in part.range(j) {
                            acc -= dense[(row, c)] * r[c];
                        }
                    }
                    r[row] = acc;
                }
            }
            for row in 0..90 {
                assert!((v[row] - r[row]).abs() < 1e-12, "row {row}");
            }
            // and (I + T) v reproduces x
            for &i in &order {
                for row in part.range(i) {
                    let mut acc = v[row];
                    for j in 0..part.len() {
                        let keep = match kind {
                            TriKind::Lower => j < i,
                            TriKind::Upper => j > i,
                        };
                        if !keep {
                            continue;
                        }
                        for c in part.range(j) {
                            acc += dense[(row, c)] * v[c];
                        }
                    }
                    assert!((acc - (row % 13) as f64 / 3.0 + 2.0).abs() < 1e-11, "{row}");
                }
            }
        }
    }

    #[test]
    fn level_scheduled_sweeps_are_bitwise_sequential() {
        for kind in [TriKind::Lower, TriKind::Upper] {
            let (tri, sched, _, _) = setup(kind);
            assert!(sched.num_levels() > 1);
            let x: Vec<f64> = (0..90)
                .map(|i| ((i * 31) % 17) as f64 / 5.0 - 1.5)
                .collect();
            let mut seq = x.clone();
            tri.sweep_sequential(&mut seq);
            let mut lvl = x.clone();
            tri.sweep_levels(&sched, &mut lvl);
            assert_eq!(seq, lvl);
            let mut par = x;
            tri.sweep_levels_parallel(&sched, &mut par);
            assert_eq!(seq, par);
        }
    }

    #[test]
    fn wide_levels_run_parallel_and_stay_bitwise_sequential() {
        // an arrow pattern: every block row couples to block 0 only, so
        // each triangle has one level holding all other rows — in the
        // lower one with four threads' worth of stored blocks, across
        // the work gate on any host with a second thread
        use vbatch_sparse::CooMatrix;
        let bs = 8;
        let nb = 1 + 4 * APPLY_GRAIN_ELEMS / (bs * bs);
        let n = nb * bs;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..nb {
            for r in 0..bs {
                coo.push(b * bs + r, b * bs + r, 4.0);
                if b > 0 {
                    for c in 0..bs {
                        let v = ((b * 7 + r * 3 + c) % 11) as f64 / 11.0 - 0.4;
                        coo.push(b * bs + r, c, v);
                        coo.push(c, b * bs + r, -v);
                    }
                }
            }
        }
        let a = coo.to_csr();
        let part = BlockPartition::uniform(n, bs);
        let pattern = BlockPattern::build(&a, &part);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 19) as f64 / 7.0 - 1.0).collect();
        for kind in [TriKind::Lower, TriKind::Upper] {
            let tri = BlockTriangular::extract(kind, &a, &part, &pattern);
            let sched = match kind {
                TriKind::Lower => LevelSchedule::lower(&pattern),
                TriKind::Upper => LevelSchedule::upper(&pattern),
            };
            assert_eq!(sched.max_width(), nb - 1);
            let mut seq = x.clone();
            tri.sweep_sequential(&mut seq);
            let mut par = x.clone();
            tri.sweep_levels_parallel(&sched, &mut par);
            assert_eq!(seq, par);
        }
    }

    #[test]
    fn sanitize_zeroes_poisoned_blocks() {
        let (mut tri, _, _, _) = setup(TriKind::Lower);
        assert!(tri.nnz_blocks() > 1);
        tri.block_data_mut(0)[1] = f64::NAN;
        let e = tri.nnz_blocks() - 1;
        tri.block_data_mut(e)[0] = f64::INFINITY;
        assert_eq!(tri.sanitize_non_finite(), 2);
        assert!(tri.block_data(0).iter().all(|&x| x == 0.0));
        assert!(tri.block_data(e).iter().all(|&x| x == 0.0));
        assert_eq!(tri.sanitize_non_finite(), 0);
    }
}
