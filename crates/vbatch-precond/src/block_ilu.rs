//! Block-ILU(0) preconditioning: the batched variable-size LU engine
//! applied beyond block-Jacobi (ROADMAP item 4).
//!
//! Where block-Jacobi keeps only the diagonal blocks, block-ILU(0)
//! keeps every block of the sparsity pattern and computes an incomplete
//! factorization `A ≈ L U` restricted to that pattern: `L` is unit
//! block-lower, `U = D + Ū` block-upper with the diagonal blocks `D`
//! factorized by the same batched kernels (blocked *and* interleaved
//! layouts) as block-Jacobi. The setup runs the classic blocked IKJ
//! sweep; the apply performs
//!
//! ```text
//! x = (I + Ũ)^{-1} · D^{-1} · (I + L̃)^{-1} · v
//! ```
//!
//! as a level-scheduled lower sweep, one batched prepared diagonal
//! solve (the PR-4 zero-allocation path), and a level-scheduled upper
//! sweep, where `Ũ = D^{-1} Ū` is *normalized at setup with the
//! realized batched factors* — including any per-block fallbacks — so
//! the three apply stages compose to exactly `U^{-1} L^{-1}` of the
//! factorization actually held in memory. Global triangular-solve
//! parallelism comes from the level-set schedules of
//! [`vbatch_sparse::LevelSchedule`] (Ruipeng Li; Chen/Liu/Yang).
//!
//! What the type holds is what differs from block-Jacobi: the IKJ
//! sweep that updates the diagonal blocks before they are factorized,
//! and the two triangles with their schedules. The diagonal itself is
//! the same one [`BlockSolve`], planned by the same
//! [`PrecondOptions::plan`].

use crate::options::PrecondOptions;
use crate::traits::{BlockPreconditioner, Preconditioner, SetupReport};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vbatch_core::lu::implicit::getrf_implicit_inplace_scratch;
use vbatch_core::{gemm_neg_acc, trsm_right_lu_inplace, FactorError, MatrixBatch, Scalar};
use vbatch_exec::{
    Backend, BlockSolve, BlockStatus, BlockTriangular, ExecStats, Phase, PlanMethod,
};
use vbatch_sparse::{BlockPartition, BlockPattern, CsrMatrix, LevelSchedule, TriKind};

/// Sweep-time factorizations of the finished pivot blocks, used to form
/// `L_ik = A_ik · D_k^{-1}` during the IKJ sweep: one flat buffer for
/// all factors, one for all pivot sequences, and the factorization
/// scratch, allocated once for the whole sweep. Singular pivots degrade
/// to sanitized reciprocal-diagonal scaling (the sweep-side analogue of
/// the scalar-Jacobi fallback) instead of aborting.
struct SweepPivots<'a, T: Scalar> {
    part: &'a BlockPartition,
    /// Combined `L\U` of every finished pivot block — or, for a block
    /// flagged in `scaled`, its reciprocal diagonal in the first `n`
    /// entries.
    lu: MatrixBatch<T>,
    /// Row-of-step pivot sequences, block `k` at `part.range(k)`.
    row_of_step: Vec<usize>,
    scaled: Vec<bool>,
    step_of_row: Vec<usize>,
    col: Vec<T>,
}

impl<'a, T: Scalar> SweepPivots<'a, T> {
    fn new(part: &'a BlockPartition, sizes: &[usize]) -> Self {
        let max_n = part.max_size();
        SweepPivots {
            part,
            lu: MatrixBatch::zeros(sizes),
            row_of_step: vec![0; part.total()],
            scaled: vec![false; part.len()],
            step_of_row: vec![0; max_n],
            col: vec![T::ZERO; max_n],
        }
    }

    /// Factorize the finished diagonal block `block` as pivot `k`;
    /// `false` when it was singular and degraded to scaling.
    fn factorize(&mut self, k: usize, block: &[T]) -> bool {
        let n = self.lu.size(k);
        let lu = self.lu.block_mut(k);
        lu.copy_from_slice(block);
        let step_of_row = &mut self.step_of_row[..n];
        if getrf_implicit_inplace_scratch(n, lu, step_of_row, &mut self.col).is_ok() {
            let row_of_step = &mut self.row_of_step[self.part.range(k)];
            for (r, &step) in step_of_row.iter().enumerate() {
                row_of_step[step] = r;
            }
            return true;
        }
        self.scaled[k] = true;
        for d in 0..n {
            let v = block[d * n + d];
            lu[d] = if v != T::ZERO && v.is_finite() {
                T::ONE / v
            } else {
                T::ONE
            };
        }
        false
    }

    /// `L\U` factors and row-of-step sequence of pivot `k`.
    fn lu(&self, k: usize) -> (&[T], &[usize]) {
        (self.lu.block(k), &self.row_of_step[self.part.range(k)])
    }

    /// Reciprocal diagonal of a pivot that degraded to scaling.
    fn inv_diag(&self, k: usize) -> &[T] {
        &self.lu.block(k)[..self.lu.size(k)]
    }
}

/// The assembled block-ILU(0) preconditioner.
pub struct BlockIlu0<T: Scalar> {
    part: BlockPartition,
    method: PlanMethod,
    /// The factorized *updated* diagonal blocks and their prepared
    /// apply (the zero-allocation path).
    diag: BlockSolve<T>,
    /// `L̃`: the strict block-lower factor.
    lower: BlockTriangular<T>,
    /// `Ũ = D^{-1} Ū`: the normalized strict block-upper factor.
    upper_tilde: BlockTriangular<T>,
    lower_sched: LevelSchedule,
    upper_sched: LevelSchedule,
    apply_stats: Mutex<ExecStats>,
    /// Wall-clock time of the whole setup (extraction, IKJ sweep,
    /// batched diagonal factorization, normalization).
    pub setup_time: Duration,
    /// Diagonal blocks degraded to a fallback by the batched
    /// factorization.
    pub fallback_blocks: usize,
    /// Pivot blocks that degraded to diagonal scaling during the IKJ
    /// sweep.
    pub sweep_fallback_pivots: usize,
    /// Off-diagonal blocks zeroed by non-finite sanitization.
    pub sanitized_offdiag_blocks: usize,
    /// Execution statistics of the setup phase.
    pub stats: ExecStats,
}

impl<T: Scalar> BlockIlu0<T> {
    /// The factorization method driving the diagonal-block solves.
    pub fn method(&self) -> PlanMethod {
        self.method
    }

    /// The strict lower factor `L̃`.
    pub fn lower(&self) -> &BlockTriangular<T> {
        &self.lower
    }

    /// The normalized strict upper factor `Ũ`.
    pub fn upper_tilde(&self) -> &BlockTriangular<T> {
        &self.upper_tilde
    }

    /// The level schedules of the two sweeps (lower, upper).
    pub fn schedules(&self) -> (&LevelSchedule, &LevelSchedule) {
        (&self.lower_sched, &self.upper_sched)
    }
}

impl<T: Scalar> Preconditioner<T> for BlockIlu0<T> {
    /// Apply `M^{-1} v = U^{-1} L^{-1} v` as lower sweep → batched
    /// prepared diagonal solve → normalized upper sweep, all through
    /// the backend. Allocation-free on the CPU backends once warm.
    fn apply_inplace(&self, v: &mut [T]) {
        debug_assert_eq!(v.len(), self.part.total());
        let _span = vbatch_rt::span!("bilu.apply", v.len());
        let mut stats = self.apply_stats.lock().expect("apply stats poisoned");
        let backend = self.diag.backend();
        backend.sweep_triangular(&self.lower, &self.lower_sched, v, &mut stats);
        self.diag.apply(v, &mut stats);
        backend.sweep_triangular(&self.upper_tilde, &self.upper_sched, v, &mut stats);
    }

    fn dim(&self) -> usize {
        self.part.total()
    }

    fn label(&self) -> String {
        format!(
            "block-ilu0({}, max {}, levels {}/{})",
            self.method.label(),
            self.part.max_size(),
            self.lower_sched.num_levels(),
            self.upper_sched.num_levels()
        )
    }
}

impl<T: Scalar> BlockPreconditioner<T> for BlockIlu0<T> {
    /// Extract the diagonal blocks and the two triangles, run the IKJ
    /// sweep, factorize the updated diagonal and normalize the upper
    /// factor. Fault injection (when configured) corrupts the extracted
    /// diagonal blocks before the sweep, exactly as in the block-Jacobi
    /// setup; corruption then propagates into the off-diagonal updates,
    /// where the non-finite sanitization pass contains it.
    fn setup_opts(
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        backend: Arc<dyn Backend<T>>,
        opts: PrecondOptions,
    ) -> Result<Self, FactorError> {
        assert_eq!(part.total(), a.nrows(), "partition must cover the matrix");
        let _span = vbatch_rt::span!("bilu.setup", part.len());
        let start = std::time::Instant::now();
        let mut stats = ExecStats::new();
        let nb = part.len();

        let mut blocks = backend.extract_blocks(a, part, &mut stats);
        opts.inject(&mut blocks);

        let extract_t0 = std::time::Instant::now();
        let pattern = BlockPattern::build(a, part);
        let mut lower = BlockTriangular::extract(TriKind::Lower, a, part, &pattern);
        let mut upper = BlockTriangular::extract(TriKind::Upper, a, part, &pattern);
        stats.add_phase(Phase::Extract, extract_t0.elapsed());

        // --- blocked IKJ ILU(0) sweep ------------------------------------
        // for i:  for k < i in pattern:  L_ik = A_ik · D_k^{-1};
        //         A_ij -= L_ik · U_kj for every patterned j > k.
        // Pivot factors are realized on the host as each row finishes;
        // the *final* diagonal blocks go through the batched backend
        // factorization below, exactly like block-Jacobi.
        let sweep_t0 = std::time::Instant::now();
        let max_n = part.max_size();
        let mut pivots = SweepPivots::new(part, blocks.sizes());
        let mut trsm_scratch = vec![T::ZERO; max_n * max_n];
        let mut aik_buf = vec![T::ZERO; max_n * max_n];
        let mut akj_buf = vec![T::ZERO; max_n * max_n];
        let mut sweep_fallback_pivots = 0usize;
        let mut sweep_flops = 0.0f64;
        for i in 0..nb {
            let m = part.size(i);
            // the lower entries of row i are its pattern columns k < i,
            // ascending: every pivot row they name is finished
            for e_ik in lower.row_entries(i) {
                let k = lower.col_of(e_ik);
                let nk = part.size(k);
                let b = lower.block_data_mut(e_ik);
                if pivots.scaled[k] {
                    for (col, &d) in b.chunks_exact_mut(m).zip(pivots.inv_diag(k)) {
                        for x in col {
                            *x *= d;
                        }
                    }
                    sweep_flops += (m * nk) as f64;
                } else {
                    let (lu, row_of_step) = pivots.lu(k);
                    trsm_right_lu_inplace(m, nk, lu, row_of_step, b, &mut trsm_scratch);
                    sweep_flops += (m * nk * nk) as f64;
                }
                aik_buf[..m * nk].copy_from_slice(b);
                // update every patterned A_ij, j > k, with -L_ik · U_kj
                for ee in upper.row_entries(k) {
                    let j = upper.col_of(ee);
                    let nj = part.size(j);
                    akj_buf[..nk * nj].copy_from_slice(upper.block_data(ee));
                    let target: Option<&mut [T]> = if j == i {
                        Some(blocks.block_mut(i))
                    } else if j < i {
                        lower.entry_index(i, j).map(|e| lower.block_data_mut(e))
                    } else {
                        upper.entry_index(i, j).map(|e| upper.block_data_mut(e))
                    };
                    if let Some(c) = target {
                        gemm_neg_acc(m, nk, nj, &aik_buf[..m * nk], &akj_buf[..nk * nj], c);
                        sweep_flops += 2.0 * (m * nk * nj) as f64;
                    }
                }
            }
            // row i finished: realize its pivot factor for later rows
            if !pivots.factorize(i, blocks.block(i)) {
                sweep_fallback_pivots += 1;
            }
        }
        stats.add_flops(sweep_flops);
        stats.add_phase(Phase::Sweep, sweep_t0.elapsed());
        drop(pivots);

        // --- batched factorization of the updated diagonal ---------------
        let plan = opts.plan::<T>(blocks.sizes());
        let diag = BlockSolve::new(backend, blocks, &plan, &mut stats);
        let factors = diag.factors();

        // --- normalize the upper factor with the realized solves ---------
        // Ũ_i* = D_i^{-1} Ū_i*, one multi-right-hand-side solve per block
        // row through the same per-block factors the apply's diagonal
        // stage uses, so the apply composes to exactly U^{-1} L^{-1} of
        // what is stored — even where a block degraded to a fallback.
        let normalize_t0 = std::time::Instant::now();
        let mut solve_scratch = vec![
            T::ZERO;
            (0..nb)
                .map(|i| {
                    let cols = upper.row_entries(i).map(|e| part.size(upper.col_of(e)));
                    factors.solve_multi_scratch_elems(i, cols.sum())
                })
                .max()
                .unwrap_or(0)
        ];
        for i in 0..nb {
            factors.solve_block_multi_inplace_with(i, upper.row_data_mut(i), &mut solve_scratch);
        }
        stats.add_phase(Phase::Solve, normalize_t0.elapsed());
        let mut upper_tilde = upper;

        // --- health triage of the off-diagonal factors --------------------
        // A non-finite coupling block (from injected faults or a
        // catastrophic pivot) is zeroed: those rows degrade toward
        // block-Jacobi instead of poisoning every downstream row.
        let sanitized_offdiag_blocks =
            lower.sanitize_non_finite() + upper_tilde.sanitize_non_finite();

        let lower_sched = LevelSchedule::lower(&pattern);
        let upper_sched = LevelSchedule::upper(&pattern);

        Ok(BlockIlu0 {
            part: part.clone(),
            method: opts.method,
            fallback_blocks: diag.fallback_count(),
            diag,
            lower,
            upper_tilde,
            lower_sched,
            upper_sched,
            apply_stats: Mutex::new(ExecStats::new()),
            setup_time: start.elapsed(),
            sweep_fallback_pivots,
            sanitized_offdiag_blocks,
            stats,
        })
    }

    fn partition(&self) -> &BlockPartition {
        &self.part
    }

    fn statuses(&self) -> impl ExactSizeIterator<Item = BlockStatus> + '_ {
        self.diag.statuses()
    }

    fn setup_report(&self) -> SetupReport {
        SetupReport {
            setup_time: self.setup_time,
            fallback_blocks: self.fallback_blocks,
            stats: self.stats.clone(),
            backend_name: self.diag.backend().name(),
        }
    }

    /// Snapshot of the accumulated steady-state apply statistics.
    fn apply_stats(&self) -> ExecStats {
        self.apply_stats
            .lock()
            .expect("apply stats poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_exec::{CpuSequential, CpuSimd};
    use vbatch_sparse::gen::laplace::laplace_2d;

    fn seq() -> Arc<dyn Backend<f64>> {
        Arc::new(CpuSequential)
    }

    #[test]
    fn block_diagonal_matrix_reduces_to_block_jacobi() {
        // with no off-diagonal blocks, BILU(0) must equal block-Jacobi
        use vbatch_sparse::CooMatrix;
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..4 {
            for i in 0..3 {
                for j in 0..3 {
                    coo.push(b * 3 + i, b * 3 + j, if i == j { 5.0 } else { 1.0 });
                }
            }
        }
        let a = coo.to_csr();
        let part = BlockPartition::uniform(n, 3);
        let backend = seq();
        let opts = PrecondOptions::default().with_method(PlanMethod::Lu);
        let bilu = BlockIlu0::setup_opts(&a, &part, backend.clone(), opts.clone()).unwrap();
        let bj = crate::BlockJacobi::setup_opts(&a, &part, backend, opts).unwrap();
        assert_eq!(bilu.lower().nnz_blocks(), 0);
        assert_eq!(bilu.upper_tilde().nnz_blocks(), 0);
        let v: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        assert_eq!(bilu.apply(&v), bj.apply(&v));
    }

    #[test]
    fn block_dense_pattern_makes_ilu0_exact() {
        // when every block of the partition is populated there is no
        // discarded fill: ILU(0) is the exact block LU, so the apply
        // must reproduce A^{-1} v to within c·n·eps.
        use vbatch_core::{solve_system, DenseMat};
        let n = 9;
        let mut coo = vbatch_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    10.0 + i as f64
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let part = BlockPartition::uniform(n, 3);
        let backend = seq();
        let m = BlockIlu0::setup_opts(
            &a,
            &part,
            backend,
            PrecondOptions::default().with_method(PlanMethod::Lu),
        )
        .unwrap();
        assert_eq!(m.fallback_blocks, 0);
        assert_eq!(m.sweep_fallback_pivots, 0);
        assert_eq!(m.sanitized_offdiag_blocks, 0);
        let v: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let x = m.apply(&v);
        let dense = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
        let xref = solve_system(&dense, &v).unwrap();
        let tol = 100.0 * n as f64 * f64::EPSILON;
        let scale: f64 = xref.iter().fold(0.0f64, |s, &t| s.max(t.abs()));
        for i in 0..n {
            assert!(
                (x[i] - xref[i]).abs() <= tol * (1.0 + scale),
                "row {i}: {} vs {}",
                x[i],
                xref[i]
            );
        }
    }

    #[test]
    fn parallel_backend_matches_sequential_bitwise() {
        // level-scheduled sweeps and per-block solves are bitwise
        // deterministic: the same setup on CpuSimd must reproduce the
        // CpuSequential apply exactly.
        let a = laplace_2d::<f64>(10, 9);
        let part = BlockPartition::uniform(90, 7);
        let opts = PrecondOptions::default().with_method(PlanMethod::Lu);
        let seq = BlockIlu0::setup_opts(&a, &part, seq(), opts.clone()).unwrap();
        let par = BlockIlu0::setup_opts(&a, &part, Arc::new(CpuSimd), opts).unwrap();
        let v: Vec<f64> = (0..90).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_eq!(seq.apply(&v), par.apply(&v));
    }

    #[test]
    fn singular_pivot_degrades_to_scaling_without_poisoning() {
        // a singular diagonal block must take the sweep-side scaling
        // fallback (and the batched fallback chain), never panic or
        // emit non-finite output.
        let n = 6;
        let mut coo = vbatch_sparse::CooMatrix::new(n, n);
        // block 0 is singular: two identical rows
        for j in 0..2 {
            coo.push(0, j, 1.0);
            coo.push(1, j, 1.0);
        }
        // coupling to block 1 and a healthy block 1 .. 2
        coo.push(0, 2, 0.5);
        coo.push(2, 0, 0.5);
        for i in 2..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let part = BlockPartition::uniform(n, 2);
        let m = BlockIlu0::setup_opts(
            &a,
            &part,
            seq(),
            PrecondOptions::default().with_method(PlanMethod::Lu),
        )
        .unwrap();
        assert!(m.sweep_fallback_pivots >= 1);
        let v = vec![1.0f64; n];
        let x = m.apply(&v);
        assert!(x.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn apply_stats_count_applies_and_book_both_stages() {
        let a = laplace_2d::<f64>(6, 6);
        let part = BlockPartition::uniform(36, 4);
        let m = BlockIlu0::setup_opts(&a, &part, seq(), PrecondOptions::default()).unwrap();
        assert_eq!(m.apply_stats().applies, 0);
        let v = vec![1.0f64; 36];
        let _ = m.apply(&v);
        let _ = m.apply(&v);
        let after = m.apply_stats();
        assert_eq!(after.applies, 2);
        assert!(after.phase_time(Phase::Sweep).as_nanos() > 0);
        assert!(after.phase_time(Phase::Apply).as_nanos() > 0);
        assert_eq!(Preconditioner::<f64>::dim(&m), 36);
        assert!(m.label().starts_with("block-ilu0(auto"));
    }
}
