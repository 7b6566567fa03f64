//! Block-Jacobi preconditioning (§II-A / §III of the paper).
//!
//! Setup: extract the diagonal blocks given by a block partition
//! (usually produced by supervariable blocking) and factorize every
//! block with one of the batched methods the paper compares —
//! small-size LU (this paper), Gauss-Huard, Gauss-Huard-T (ICCS'17
//! baselines), explicit Gauss-Jordan inversion (PMAM'17, ref.\[4\]) or
//! Cholesky (the paper's future-work extension, SPD blocks only).
//!
//! The preconditioner is extraction plus one [`BlockSolve`]: the
//! backend extracts, [`PrecondOptions::plan`] picks the kernel for
//! every size class (LU under the default `auto`, or a forced family),
//! and the `BlockSolve` owns the factorized
//! batch and the per-iteration batched block solves. Singular diagonal
//! blocks degrade to a scalar-Jacobi fallback per block instead of
//! aborting the whole setup; callers that need an exact factorization
//! everywhere check [`BlockPreconditioner::statuses`] /
//! [`BlockJacobi::fallback_blocks`].

use crate::options::PrecondOptions;
use crate::traits::{BlockPreconditioner, Preconditioner, SetupReport};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vbatch_core::{FactorError, Scalar};
use vbatch_exec::{Backend, BlockSolve, BlockStatus, ExecStats, PlanMethod};
use vbatch_sparse::{BlockPartition, CsrMatrix};

/// The assembled block-Jacobi preconditioner.
pub struct BlockJacobi<T: Scalar> {
    part: BlockPartition,
    method: PlanMethod,
    /// The factorized diagonal blocks and their prepared apply.
    diag: BlockSolve<T>,
    /// Accumulated apply-phase statistics (timings, workspace
    /// high-water mark), behind a mutex because the `Preconditioner`
    /// trait applies through `&self`.
    apply_stats: Mutex<ExecStats>,
    /// Wall-clock time of extraction + batched factorization.
    pub setup_time: Duration,
    /// Number of singular blocks degraded to the scalar-Jacobi fallback.
    pub fallback_blocks: usize,
    /// Execution statistics of the setup phase (kernel histogram,
    /// flops, per-phase timings).
    pub stats: ExecStats,
}

impl<T: Scalar> BlockJacobi<T> {
    /// The factorization method in use.
    pub fn method(&self) -> PlanMethod {
        self.method
    }
}

impl<T: Scalar> Preconditioner<T> for BlockJacobi<T> {
    /// Apply `M^{-1} v` through the prepared batched solve: no private
    /// block loop, no per-call dispatch rebuild, and — on the CPU
    /// backends — no heap allocation. Timings and workspace high-water
    /// marks accumulate in [`BlockPreconditioner::apply_stats`].
    fn apply_inplace(&self, v: &mut [T]) {
        debug_assert_eq!(v.len(), self.part.total());
        let _span = vbatch_rt::span!("bj.apply", v.len());
        let mut stats = self.apply_stats.lock().expect("apply stats poisoned");
        self.diag.apply(v, &mut stats);
    }

    fn dim(&self) -> usize {
        self.part.total()
    }

    fn label(&self) -> String {
        format!(
            "block-jacobi({}, max {})",
            self.method.label(),
            self.part.max_size()
        )
    }
}

impl<T: Scalar> BlockPreconditioner<T> for BlockJacobi<T> {
    /// Extract the diagonal blocks of `a` under `part` on `backend`,
    /// factorize them and prepare the apply. Method, layout, precision
    /// policy, health triage and optional pre-factorization fault
    /// injection all come from `opts`. Singular diagonal blocks degrade
    /// to a scalar-Jacobi fallback (reported per block in
    /// [`BlockPreconditioner::statuses`]) instead of failing the setup.
    fn setup_opts(
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        backend: Arc<dyn Backend<T>>,
        opts: PrecondOptions,
    ) -> Result<Self, FactorError> {
        assert_eq!(part.total(), a.nrows(), "partition must cover the matrix");
        let _span = vbatch_rt::span!("bj.setup", part.len());
        let start = std::time::Instant::now();
        let mut stats = ExecStats::new();
        let mut blocks = backend.extract_blocks(a, part, &mut stats);
        opts.inject(&mut blocks);
        let plan = opts.plan::<T>(blocks.sizes());
        let diag = BlockSolve::new(backend, blocks, &plan, &mut stats);
        Ok(BlockJacobi {
            part: part.clone(),
            method: opts.method,
            fallback_blocks: diag.fallback_count(),
            diag,
            apply_stats: Mutex::new(ExecStats::new()),
            setup_time: start.elapsed(),
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

    /// Snapshot of the accumulated apply-phase statistics: total
    /// [`vbatch_exec::Phase::Apply`] wall-clock, number of applies, and
    /// the workspace high-water mark in elements.
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
    use vbatch_core::BatchLayout;
    use vbatch_exec::{CpuSequential, CpuSimd, FaultClass, FaultPlan, Phase};
    use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};
    use vbatch_sparse::gen::laplace::laplace_2d;
    use vbatch_sparse::supervariable_blocking;

    fn seq() -> Arc<dyn Backend<f64>> {
        Arc::new(CpuSequential)
    }

    fn par() -> Arc<dyn Backend<f64>> {
        Arc::new(CpuSimd)
    }

    fn setup(
        a: &CsrMatrix<f64>,
        part: &BlockPartition,
        method: PlanMethod,
        backend: Arc<dyn Backend<f64>>,
    ) -> BlockJacobi<f64> {
        let opts = PrecondOptions::default().with_method(method);
        BlockJacobi::setup_opts(a, part, backend, opts).unwrap()
    }

    fn test_problem() -> (CsrMatrix<f64>, BlockPartition) {
        let mesh = MeshGraph::grid2d(5, 4);
        let a = fem_block_matrix::<f64>(&mesh, 3, 0.4, 0.1, 7);
        let part = supervariable_blocking(&a, 12);
        (a, part)
    }

    #[test]
    fn all_factorization_methods_apply_block_inverse() {
        let (a, part) = test_problem();
        let d = a.to_dense();
        // reference: solve each diagonal block densely
        for method in [
            PlanMethod::Lu,
            PlanMethod::GaussHuard,
            PlanMethod::GaussHuardT,
            PlanMethod::GjeInvert,
            PlanMethod::Auto,
        ] {
            let m = setup(&a, &part, method, seq());
            let v: Vec<f64> = (0..a.nrows()).map(|i| (i as f64) * 0.1 - 2.0).collect();
            let w = m.apply(&v);
            for b in 0..part.len() {
                let r = part.range(b);
                let block = vbatch_core::DenseMat::from_fn(r.len(), r.len(), |i, j| {
                    d[(r.start + i, r.start + j)]
                });
                let xb = vbatch_core::solve_system(&block, &v[r.clone()]).unwrap();
                for (i, gi) in r.clone().enumerate() {
                    assert!(
                        (w[gi] - xb[i]).abs() < 1e-8,
                        "{method:?} block {b} entry {i}: {} vs {}",
                        w[gi],
                        xb[i]
                    );
                }
            }
        }
    }

    #[test]
    fn cholesky_method_on_spd_blocks() {
        let a = laplace_2d::<f64>(6, 6);
        let part = BlockPartition::uniform(36, 6);
        let m = setup(&a, &part, PlanMethod::Cholesky, par());
        assert_eq!(m.fallback_blocks, 0, "every block must be SPD");
        let lu = setup(&a, &part, PlanMethod::Lu, par());
        let v = vec![1.0; 36];
        let wc = m.apply(&v);
        let wl = lu.apply(&v);
        for i in 0..36 {
            assert!((wc[i] - wl[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn methods_agree_with_each_other() {
        let (a, part) = test_problem();
        let v: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 7) % 13) as f64 - 6.0)
            .collect();
        let results: Vec<Vec<f64>> = [
            PlanMethod::Lu,
            PlanMethod::GaussHuard,
            PlanMethod::GaussHuardT,
            PlanMethod::GjeInvert,
            PlanMethod::Auto,
        ]
        .iter()
        .map(|&m| setup(&a, &part, m, par()).apply(&v))
        .collect();
        for r in &results[1..] {
            for (x, y) in results[0].iter().zip(r) {
                assert!((x - y).abs() < 1e-8, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn singular_block_degrades_to_scalar_jacobi() {
        // a matrix whose second diagonal block is singular
        let mut coo = vbatch_sparse::CooMatrix::new(4, 4);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        // block [2..4) is rank-1
        coo.push(2, 2, 1.0);
        coo.push(2, 3, 2.0);
        coo.push(3, 2, 2.0);
        coo.push(3, 3, 4.0);
        let a = coo.to_csr();
        let part = BlockPartition::uniform(4, 2);
        // setup degrades only the offending block and reports why
        let m = setup(&a, &part, PlanMethod::Lu, seq());
        assert_eq!(m.fallback_blocks, 1);
        let statuses: Vec<_> = m.statuses().collect();
        assert!(statuses[0].error.is_none());
        assert!(matches!(
            statuses[1].error,
            Some(FactorError::SingularPivot { .. })
        ));
        assert!(!statuses[0].is_fallback());
        assert!(statuses[1].is_fallback());
        // the fallback block acts like scalar Jacobi
        let w = m.apply(&[1.0, 1.0, 1.0, 4.0]);
        assert!((w[0] - 0.5).abs() < 1e-14);
        assert!((w[2] - 1.0).abs() < 1e-14);
        assert!((w[3] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn setup_records_kernel_histogram() {
        let (a, part) = test_problem();
        let m = setup(&a, &part, PlanMethod::Auto, seq());
        let hist = m.stats.histogram_compact();
        assert!(!hist.is_empty(), "setup must record kernel choices");
        assert!(m.stats.flops > 0.0);
    }

    #[test]
    fn layouts_produce_identical_preconditioners() {
        let a = laplace_2d::<f64>(8, 8);
        let part = BlockPartition::uniform(64, 4); // 16 uniform blocks
        let v: Vec<f64> = (0..64).map(|i| ((i * 5) % 17) as f64 - 8.0).collect();
        let lu = PrecondOptions::default().with_method(PlanMethod::Lu);
        let blocked = BlockJacobi::setup_opts(
            &a,
            &part,
            seq(),
            lu.clone().with_layout(BatchLayout::Blocked),
        )
        .unwrap();
        let interleaved = BlockJacobi::setup_opts(
            &a,
            &part,
            seq(),
            lu.with_layout(BatchLayout::Interleaved { class_capacity: 2 }),
        )
        .unwrap();
        assert_eq!(interleaved.stats.layout_histogram()["interleaved"], 16);
        assert_eq!(blocked.stats.layout_histogram()["blocked"], 16);
        // same arithmetic order per block: bitwise-identical applies
        assert_eq!(blocked.apply(&v), interleaved.apply(&v));
    }

    #[test]
    fn options_setup_injects_and_triages_faults() {
        let a = laplace_2d::<f64>(8, 8);
        let part = BlockPartition::uniform(64, 4); // 16 blocks
        let plan = FaultPlan::new(7).with(FaultClass::ZeroRow, 0.1);
        let m = BlockJacobi::setup_opts(
            &a,
            &part,
            seq(),
            PrecondOptions::guarded::<f64>()
                .with_method(PlanMethod::Lu)
                .with_fault(plan.clone()),
        )
        .unwrap();
        let map = plan.assign(m.partition().len());
        assert_eq!(map.len(), 16);
        let victims = map.iter().filter(|f| f.is_some()).count();
        assert_eq!(victims, 2, "round(0.1 * 16)");
        for (i, (st, f)) in m.statuses().zip(&map).enumerate() {
            assert_eq!(st.health, vbatch_exec::expected_health(*f), "block {i}");
        }
        assert_eq!(m.fallback_blocks, victims);
        // the degraded preconditioner still applies finitely
        let w = m.apply(&vec![1.0; 64]);
        assert!(w.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn exactly_singular_block_applies_without_panic_on_every_backend() {
        // Regression: the apply path must never panic on a singular
        // block — the factorization degrades it to the sanitized
        // scalar-Jacobi fallback and every backend's (prepared) apply
        // routes through `FactorizedBatch`, never through a raw
        // `solve_system(..).unwrap()`.
        let mut coo = vbatch_sparse::CooMatrix::new(6, 6);
        // block [0..3): exactly singular (rank 1: every row equal)
        for r in 0..3 {
            for c in 0..3 {
                coo.push(r, c, 1.0);
            }
        }
        // block [3..6): well-conditioned
        for r in 3..6 {
            coo.push(r, r, 4.0);
            if r + 1 < 6 {
                coo.push(r, r + 1, 1.0);
                coo.push(r + 1, r, 1.0);
            }
        }
        let a = coo.to_csr();
        let part = BlockPartition::uniform(6, 3);
        let v: Vec<f64> = vec![2.0, -1.0, 0.5, 1.0, 1.0, 1.0];
        let mut outputs = Vec::new();
        for backend in [seq(), par()] {
            let m = setup(&a, &part, PlanMethod::Lu, backend);
            assert_eq!(m.fallback_blocks, 1);
            assert!(m.statuses().next().unwrap().is_fallback());
            let w = m.apply(&v);
            assert!(w.iter().all(|x| x.is_finite()), "{w:?}");
            // the singular block degraded to scalar Jacobi on its
            // (unit-sanitized) diagonal: x = v there
            outputs.push(w);
        }
        for w in &outputs[1..] {
            assert_eq!(&outputs[0], w, "backends disagree on fallback apply");
        }
    }

    #[test]
    fn apply_accumulates_workspace_stats() {
        let (a, part) = test_problem();
        let m = setup(&a, &part, PlanMethod::Lu, seq());
        let v: Vec<f64> = (0..a.nrows()).map(|i| i as f64 * 0.25 - 1.0).collect();
        let _ = m.apply(&v);
        let _ = m.apply(&v);
        let s = m.apply_stats();
        assert_eq!(s.applies, 2);
        assert!(
            s.workspace_hwm_elems > 0,
            "the prepared scratch is resident"
        );
        assert!(s.phase_time(Phase::Apply).as_nanos() > 0);
    }

    #[test]
    fn label_reports_method_and_bound() {
        let (a, part) = test_problem();
        let m = setup(&a, &part, PlanMethod::Lu, seq());
        let l = Preconditioner::<f64>::label(&m);
        assert!(l.contains("LU"), "{l}");
        assert!(m.setup_time.as_nanos() > 0);
    }
}
