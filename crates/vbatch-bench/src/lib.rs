//! Shared harness for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §4 for the index).
//!
//! Each binary prints a paper-style table to stdout and writes the raw
//! series as CSV under `target/experiments/`.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vbatch_core::{BatchLayout, MatrixBatch, Scalar};
use vbatch_exec::{
    Backend, BatchPlan, BlockSolve, CpuSequential, ExecStats, HealthPolicy, PlanMethod,
    PrecisionPolicy,
};
use vbatch_precond::{BlockIlu0, BlockPreconditioner, Jacobi, PrecondOptions, Preconditioner};
use vbatch_solver::{idr, SolveParams, SpikeSolver, StopReason};
use vbatch_sparse::{BlockPartition, CooMatrix, CsrMatrix, SpikePartition};

mod estimate;
pub use estimate::{estimate_planned_factor, PlannedRow};

/// Batch-size sweep used by Figs. 4 and 6 (the paper's x-axis reaches
/// 40,000 systems).
pub const BATCH_SWEEP: [usize; 11] = [
    1_000, 2_000, 4_000, 6_000, 8_000, 12_000, 16_000, 20_000, 26_000, 32_000, 40_000,
];

/// Matrix-size sweep used by Figs. 5 and 7.
pub fn size_sweep() -> Vec<usize> {
    (1..=32).collect()
}

/// Block-size upper bounds of Fig. 8 / Table I.
pub const BLOCK_BOUNDS: [usize; 5] = [8, 12, 16, 24, 32];

/// CSV schema of the Fig. 4 artifact. The `cpu_blocked` /
/// `cpu_interleaved` / `cpu_simd` columns are *measured* host GFLOPS of
/// the same batch: blocked vs interleaved storage on one thread
/// ([`CpuSequential`]), and the interleaved storage again — the same
/// lane kernels — with setup on all threads ([`vbatch_exec::CpuSimd`]);
/// `plan_layouts` records the planner's per-class layout histogram;
/// `cpu_apply` is the measured prepared-apply throughput
/// ([`measure_cpu_apply`]) and `ws_hwm` its resident workspace
/// high-water mark in scalar elements. [`PlannedRow`] fills every
/// column from `planner` on, the same ten as in [`FIG5_HEADER`].
pub const FIG4_HEADER: [&str; 18] = [
    "precision",
    "precision_policy",
    "block",
    "batch",
    "small_size_lu",
    "gauss_huard",
    "gauss_huard_t",
    "cublas_lu",
    "planner",
    "plan_kernels",
    "cpu_blocked",
    "cpu_interleaved",
    "cpu_simd",
    "plan_layouts",
    "health",
    "cpu_apply",
    "ws_hwm",
    "precond",
];

/// CSV schema of the Fig. 8 (preconditioner edition) artifact.
pub const FIG8_PRECOND_HEADER: [&str; 9] = [
    "bound",
    "matrix",
    "bj_iters",
    "bilu_iters",
    "bj_total_s",
    "bilu_total_s",
    "winner",
    "backend",
    "precision_policy",
];

/// CSV schema of the Ablation E (apply paths) artifact.
pub const ABLATION_APPLY_HEADER: [&str; 15] = [
    "size",
    "trsv_apply_s",
    "gemv_apply_s",
    "lu_setup_s",
    "inv_setup_s",
    "break_even_iters",
    "m_solve_apply_s",
    "m_prepared_apply_s",
    "m_allocs_per_solve_apply",
    "m_allocs_per_prepared_apply",
    "m_ws_hwm_elems",
    "m_simd_prepared_apply_s",
    "m_allocs_per_simd_prepared_apply",
    "precond",
    "precision_policy",
];

/// CSV schema of the `fig_mixed` artifact: the SP/mixed/DP setup-time
/// and iteration-count frontier.
pub const FIG_MIXED_HEADER: [&str; 12] = [
    "precision_policy",
    "block",
    "batch",
    "setup_blocked_s",
    "setup_interleaved_s",
    "setup_simd_s",
    "setup_speedup_vs_dp",
    "setup_simd_speedup_vs_dp",
    "idr_iters",
    "idr_setup_s",
    "idr_relres",
    "converged",
];

/// CSV schema of the `fig_spike` artifact: the SPIKE partition-scaling
/// sweep (EXPERIMENTS.md §H). Phase columns come from the solver's
/// [`ExecStats`] phases and do not overlap: `factor_ms` both batched
/// factorizations (partitions and reduced coupling blocks), `reduce_ms`
/// the spike formation (its `2k` batched solves and the copies around
/// them) plus the reduced assembly, `apply_ms` the cumulative warm
/// applies of the refinement loop.
pub const FIG_SPIKE_HEADER: [&str; 12] = [
    "precision",
    "n",
    "bandwidth",
    "partitions",
    "interfaces",
    "setup_ms",
    "factor_ms",
    "reduce_ms",
    "apply_ms",
    "refinements",
    "relres",
    "solve_ms",
];

/// CSV schema of the Fig. 5 artifact (layout and apply columns as in
/// [`FIG4_HEADER`]).
pub const FIG5_HEADER: [&str; 17] = [
    "precision",
    "precision_policy",
    "size",
    "small_size_lu",
    "gauss_huard",
    "gauss_huard_t",
    "cublas_lu",
    "planner",
    "plan_kernels",
    "cpu_blocked",
    "cpu_interleaved",
    "cpu_simd",
    "plan_layouts",
    "health",
    "cpu_apply",
    "ws_hwm",
    "precond",
];

/// Deterministic diagonally-dominant uniform batch used by the measured
/// host-throughput columns of Figs. 4/5.
pub fn uniform_bench_batch<T: Scalar>(count: usize, n: usize) -> MatrixBatch<T> {
    MatrixBatch::uniform_from_fn(count, n, |blk, i, j| {
        let h = (i * 131 + j * 37 + blk * 17 + 3) % 1024;
        T::from_f64(h as f64 / 512.0 - 1.0 + if i == j { (n + 2) as f64 } else { 0.0 })
    })
}

/// Measured host factorization throughput in GFLOPS on `backend` under
/// a forced batch layout and precision policy, using the paper's
/// `2/3 n³` flop count. Times the bare [`Backend::factorize`] call —
/// the thing it measures — not a [`BlockSolve`], whose constructor also
/// prepares the apply.
pub fn measure_factor_gflops<T: Scalar>(
    backend: &dyn Backend<T>,
    batch: &MatrixBatch<T>,
    layout: BatchLayout,
    precision: PrecisionPolicy,
) -> f64 {
    let plan = BatchPlan::auto_with_layout::<T>(batch.sizes(), layout).with_precision(precision);
    // best of three runs: a single run is dominated by allocator and
    // page-fault noise at the small end of the sweep
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut stats = ExecStats::new();
        let copy = batch.clone();
        let t0 = Instant::now();
        let factors = backend.factorize(copy, &plan, &mut stats);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(factors.fallback_count(), 0, "bench batch must be regular");
        best = best.min(dt);
    }
    batch.getrf_flops() / best / 1e9
}

/// Measured host (CpuSequential) *prepared-apply* throughput in GFLOPS
/// (the paper's `2 n²` flops per block application) plus the prepared
/// workspace high-water mark in scalar elements. This is the
/// steady-state per-Krylov-iteration path: all dispatch and scratch are
/// precomputed, so the timed region performs zero heap allocations.
pub fn measure_cpu_apply<T: Scalar>(batch: &MatrixBatch<T>, layout: BatchLayout) -> (f64, usize) {
    let plan = BatchPlan::auto_with_layout::<T>(batch.sizes(), layout);
    let mut stats = ExecStats::new();
    let solve = BlockSolve::new(Arc::new(CpuSequential), batch.clone(), &plan, &mut stats);
    let total: usize = batch.sizes().iter().sum();
    let best = best_warm_apply_s(total, |v| solve.apply(v, &mut stats));
    let flops: f64 = batch.sizes().iter().map(|&n| 2.0 * (n * n) as f64).sum();
    (flops / best / 1e9, solve.workspace_hwm_elems())
}

/// Best-of-three seconds of one in-place `apply` to the bench vector of
/// length `total`, after one untimed warm-up application.
fn best_warm_apply_s<T: Scalar>(total: usize, mut apply: impl FnMut(&mut [T])) -> f64 {
    let mut v: Vec<T> = (0..total)
        .map(|i| T::from_f64(1.0 + (i % 5) as f64))
        .collect();
    apply(&mut v); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        apply(&mut v);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Report a bad command-line flag value and exit with the conventional
/// usage status. Bad user input is not a bug: the bins report it on
/// stderr without a panic backtrace.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Scan the process arguments for one `--flag value` / `--flag=value`
/// occurrence and return the raw value. This is the single arg-scan
/// shared by every bin flag, so all of them accept both spellings and
/// report malformed values identically (stderr, exit status 2).
fn flag_value(flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if a == flag {
            return Some(args.get(i + 1).cloned().unwrap_or_default());
        }
    }
    None
}

/// Which block preconditioner a driver should build — the dispatch
/// token behind the benchmark bins' `--precond {bj,bilu,spike}` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecondKind {
    /// Block-Jacobi: batched diagonal-block solves only.
    BlockJacobi,
    /// Block-ILU(0): batched diagonal-block solves plus level-scheduled
    /// global triangular sweeps.
    BlockIlu0,
    /// SPIKE splitting (banded systems): batched partition solves plus
    /// a reduced interface correction ([`SpikeSolver`]).
    Spike,
}

impl PrecondKind {
    /// All kinds, comparison order.
    pub const ALL: [PrecondKind; 3] = [
        PrecondKind::BlockJacobi,
        PrecondKind::BlockIlu0,
        PrecondKind::Spike,
    ];

    /// Stable short label ("bj" / "bilu" / "spike"), used in CSV output
    /// and flag parsing.
    pub fn label(self) -> &'static str {
        match self {
            PrecondKind::BlockJacobi => "bj",
            PrecondKind::BlockIlu0 => "bilu",
            PrecondKind::Spike => "spike",
        }
    }

    /// Parse a `--precond` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bj" | "block-jacobi" => Some(PrecondKind::BlockJacobi),
            "bilu" | "bilu0" | "block-ilu" => Some(PrecondKind::BlockIlu0),
            "spike" => Some(PrecondKind::Spike),
            _ => None,
        }
    }
}

/// Parse the `--precond {bj,bilu,spike}` flag shared by the experiment bins
/// (`--precond bilu` or `--precond=bilu`); defaults to block-Jacobi,
/// the historical behaviour. An unknown value is a usage error:
/// reported on stderr, exit status 2.
pub fn parse_precond_flag() -> PrecondKind {
    match flag_value("--precond") {
        None => PrecondKind::BlockJacobi,
        Some(v) => PrecondKind::parse(&v).unwrap_or_else(|| {
            usage_error(&format!(
                "unknown --precond value {v:?} (expected bj, bilu or spike)"
            ))
        }),
    }
}

/// Parse the `--precision {dp,mixed,sp}` flag shared by the experiment
/// bins (`--precision mixed` or `--precision=mixed`); defaults to full
/// working precision, the historical behaviour. An unknown value is a
/// usage error: reported on stderr, exit status 2.
pub fn parse_precision_flag() -> PrecisionPolicy {
    match flag_value("--precision").as_deref() {
        None | Some("dp") => PrecisionPolicy::FullDp,
        Some("mixed") => PrecisionPolicy::MixedPromote,
        Some("sp") => PrecisionPolicy::ForceSp,
        Some(other) => usage_error(&format!(
            "unknown --precision value {other:?} (expected dp, mixed or sp)"
        )),
    }
}

/// Deterministic diagonally-dominant block-tridiagonal system: `count`
/// diagonal blocks of order `n` (same entries as
/// [`uniform_bench_batch`]) coupled to their neighbours through
/// diagonal coupling blocks. This is the matrix behind the block-ILU(0)
/// apply-throughput column: its block pattern has exactly one
/// lower/upper entry per interior block row, so both triangular sweeps
/// do real work.
pub fn block_tridiag_system<T: Scalar>(count: usize, n: usize) -> (CsrMatrix<T>, BlockPartition) {
    let total = count * n;
    let mut coo = CooMatrix::new(total, total);
    for (i, j, v) in vbatch_rt::testgen::block_tridiag_triplets(count, n, -0.25) {
        coo.push(i, j, T::from_f64(v));
    }
    (coo.to_csr(), BlockPartition::uniform(total, n))
}

/// Seeded diagonally-dominant banded bench system from the shared
/// [`vbatch_rt::testgen`] generator: dense band of half-bandwidth
/// `bw`, unit diagonal, per-row off-diagonal mass `1 / dominance` —
/// the SPIKE partition-scaling input (benches and property suites
/// draw from the same source of cases).
pub fn banded_bench_system<T: Scalar>(
    n: usize,
    bw: usize,
    dominance: f64,
    seed: u64,
) -> CsrMatrix<T> {
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, bw, dominance, seed) {
        coo.push(i, j, T::from_f64(v));
    }
    coo.to_csr()
}

/// Measured host (CpuSequential) *preconditioner apply* throughput in
/// GFLOPS plus the prepared workspace high-water mark, for the
/// preconditioner selected by `--precond`: block-Jacobi measures the
/// prepared batched diagonal solve ([`measure_cpu_apply`], `2 n²` flops
/// per block); block-ILU(0) measures the full three-stage apply (lower
/// sweep, prepared diagonal solve, normalized upper sweep) on the
/// block-tridiagonal system of the same shape; SPIKE measures one full
/// split pass (prepared partition solves, reduced coupling solve,
/// recovery GEMVs) on the same system split into `count / 4`
/// partitions.
pub fn measure_precond_apply<T: Scalar>(kind: PrecondKind, count: usize, n: usize) -> (f64, usize) {
    let seq = Arc::new(CpuSequential) as Arc<dyn Backend<T>>;
    let opts = PrecondOptions::default()
        .with_method(PlanMethod::Lu)
        .with_layout(BatchLayout::Blocked);
    match kind {
        PrecondKind::BlockJacobi => {
            measure_cpu_apply(&uniform_bench_batch::<T>(count, n), BatchLayout::Blocked)
        }
        PrecondKind::BlockIlu0 => {
            let (a, part) = block_tridiag_system::<T>(count, n);
            let m = BlockIlu0::setup_opts(&a, &part, seq, opts).expect("bilu bench setup");
            let best = best_warm_apply_s(part.total(), |v| m.apply_inplace(v));
            let flops = count as f64 * 2.0 * (n * n) as f64
                + m.lower().sweep_flops()
                + m.upper_tilde().sweep_flops();
            (flops / best / 1e9, m.apply_stats().workspace_hwm_elems)
        }
        PrecondKind::Spike => {
            let (a, _) = block_tridiag_system::<T>(count, n);
            let p = (count / 4).max(1);
            let sp = SpikePartition::detect(&a, p).expect("spike bench partition");
            let m = SpikeSolver::setup(&a, &sp, seq, opts).expect("spike bench setup");
            let best = best_warm_apply_s(sp.part().total(), |v| m.apply_inplace(v));
            // Per apply: the prepared diagonal solve (2 n_j² each), the
            // reduced coupling solve (p − 1 blocks of 2 (2k)²) and one
            // n_j × k recovery GEMV per spike present.
            let k = sp.bandwidth() as f64;
            let blocks = sp.part().len();
            let mut flops = 2.0 * (2.0 * k) * (2.0 * k) * sp.interfaces() as f64;
            for j in 0..blocks {
                let nj = sp.part().range(j).len() as f64;
                flops += 2.0 * nj * nj;
                if j + 1 < blocks {
                    flops += 2.0 * nj * k;
                }
                if j > 0 {
                    flops += 2.0 * nj * k;
                }
            }
            (flops / best / 1e9, m.workspace_hwm_elems())
        }
    }
}

/// Health histogram of a bench batch under guarded triage on the host
/// backend (the `health` CSV column of Figs. 4/5): the blocks' statuses
/// tallied by health label, `label=count;…` in label order — e.g.
/// `"healthy=40000"` for the regular bench batches.
pub fn factor_health_compact<T: Scalar>(batch: &MatrixBatch<T>) -> String {
    let plan = BatchPlan::auto::<T>(batch.sizes()).with_health(HealthPolicy::guarded::<T>());
    let factors = CpuSequential.factorize(batch.clone(), &plan, &mut ExecStats::new());
    let mut tally = std::collections::BTreeMap::new();
    for s in factors.statuses() {
        *tally.entry(s.health.label()).or_insert(0u64) += 1;
    }
    vbatch_exec::stats::compact(&tally)
}

/// Best-of-three host factorization seconds for one sweep point, with
/// and without guarded health triage — the guarded-vs-unguarded row of
/// EXPERIMENTS.md. Returns `(unguarded_s, guarded_s)`.
pub fn measure_guarded_overhead<T: Scalar>(count: usize, n: usize) -> (f64, f64) {
    let batch = uniform_bench_batch::<T>(count, n);
    let time = |health: HealthPolicy| {
        let plan = BatchPlan::auto::<T>(batch.sizes()).with_health(health);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut stats = ExecStats::new();
            let copy = batch.clone();
            let t0 = Instant::now();
            let _ = CpuSequential.factorize(copy, &plan, &mut stats);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    (time(HealthPolicy::Off), time(HealthPolicy::guarded::<T>()))
}

/// Output directory for CSV artifacts.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Write a CSV artifact; returns the path it was written to.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = out_dir().join(format!("{name}.csv"));
    let mut text = String::new();
    text.push_str(&header.join(","));
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    fs::write(&path, text).expect("write csv");
    path
}

/// Outcome of one preconditioned IDR(4) run.
#[derive(Clone, Copy, Debug)]
pub struct SolveOutcome {
    /// Iterations (preconditioned matvecs).
    pub iters: usize,
    /// Preconditioner setup seconds.
    pub setup_s: f64,
    /// Iteration-loop seconds.
    pub solve_s: f64,
    /// Converged to the 1e-6 relative residual?
    pub converged: bool,
    /// Why the solve stopped (renders via `Display` in reports).
    pub reason: StopReason,
    /// True relative residual of the returned iterate.
    pub relres: f64,
}

impl SolveOutcome {
    /// Setup + solve, the paper's "runtime" column.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.solve_s
    }
}

/// Run IDR(4) with scalar Jacobi (the "Jacobi" column of Table I).
pub fn run_jacobi_idr(a: &CsrMatrix<f64>) -> Option<SolveOutcome> {
    let t0 = Instant::now();
    let m = Jacobi::setup(a).ok()?;
    let setup_s = t0.elapsed().as_secs_f64();
    run_with(a, &m, setup_s)
}

/// Run IDR(4) on `b = 1` with the block preconditioner `M` over `part`
/// (a supervariable blocking in the suite bins), on an explicit
/// execution backend and precision policy — the engine of the suite
/// bins and of their `--precision` flag. Setup and the per-iteration
/// block solves go through the `vbatch-exec` backend layer; singular
/// blocks degrade per block to scalar Jacobi; under a lowering policy
/// the diagonal-block factors are stored narrowed and applied through
/// the widening refinement solves. `None` if the setup fails.
pub fn run_precond_idr<M: BlockPreconditioner<f64>>(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    method: PlanMethod,
    backend: Arc<dyn Backend<f64>>,
    precision: PrecisionPolicy,
) -> Option<SolveOutcome> {
    let opts = PrecondOptions::default()
        .with_method(method)
        .with_precision(precision);
    let m = M::setup_opts(a, part, backend, opts).ok()?;
    run_with(a, &m, m.setup_report().setup_time.as_secs_f64())
}

fn run_with<M: Preconditioner<f64>>(
    a: &CsrMatrix<f64>,
    m: &M,
    setup_s: f64,
) -> Option<SolveOutcome> {
    let b = vec![1.0; a.nrows()];
    let r = idr(a, &b, 4, m, &SolveParams::default());
    Some(SolveOutcome {
        iters: r.iterations,
        setup_s,
        solve_s: r.solve_time.as_secs_f64(),
        converged: r.converged(),
        reason: r.reason,
        relres: r.final_relres,
    })
}

/// Format an optional outcome like Table I. Non-converged runs show the
/// stop reason (via [`StopReason`]'s `Display`) in the iterations cell
/// instead of a bare "-", so the tables say *why* a cell is missing.
pub fn fmt_outcome(o: &Option<SolveOutcome>) -> (String, String) {
    match o {
        Some(oc) if oc.converged => (oc.iters.to_string(), format!("{:.3}", oc.total_s())),
        Some(oc) => (oc.reason.to_string(), "-".into()),
        None => ("-".into(), "-".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_exec::CpuSimd;
    use vbatch_precond::BlockJacobi;
    use vbatch_sparse::gen::laplace::laplace_2d;
    use vbatch_sparse::supervariable_blocking;

    fn run_idr<M: BlockPreconditioner<f64>>(
        a: &CsrMatrix<f64>,
        precision: PrecisionPolicy,
    ) -> SolveOutcome {
        let backend = Arc::new(CpuSequential);
        let part = supervariable_blocking(a, 16);
        run_precond_idr::<M>(a, &part, PlanMethod::Lu, backend, precision).unwrap()
    }

    #[test]
    fn csv_roundtrip() {
        let p = write_csv(
            "unit_test_artifact",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn jacobi_runner_converges_on_laplacian() {
        let a = laplace_2d::<f64>(12, 12);
        let o = run_jacobi_idr(&a).unwrap();
        assert!(o.converged);
        assert!(o.iters > 0);
        assert!(o.total_s() >= o.solve_s);
    }

    #[test]
    fn block_jacobi_runner_converges() {
        let a = laplace_2d::<f64>(12, 12);
        let o = run_idr::<BlockJacobi<f64>>(&a, PrecisionPolicy::FullDp);
        assert!(o.converged);
    }

    #[test]
    fn fig_csv_schemas_are_stable() {
        // snapshot: bench output schema changes must be deliberate
        assert_eq!(
            FIG4_HEADER.join(","),
            "precision,precision_policy,block,batch,small_size_lu,gauss_huard,gauss_huard_t,\
             cublas_lu,planner,plan_kernels,cpu_blocked,cpu_interleaved,cpu_simd,\
             plan_layouts,health,cpu_apply,ws_hwm,precond"
        );
        assert_eq!(
            FIG5_HEADER.join(","),
            "precision,precision_policy,size,small_size_lu,gauss_huard,gauss_huard_t,\
             cublas_lu,planner,plan_kernels,cpu_blocked,cpu_interleaved,cpu_simd,\
             plan_layouts,health,cpu_apply,ws_hwm,precond"
        );
        assert_eq!(
            FIG8_PRECOND_HEADER.join(","),
            "bound,matrix,bj_iters,bilu_iters,bj_total_s,bilu_total_s,winner,backend,\
             precision_policy"
        );
        assert_eq!(
            ABLATION_APPLY_HEADER.join(","),
            "size,trsv_apply_s,gemv_apply_s,lu_setup_s,inv_setup_s,break_even_iters,\
             m_solve_apply_s,m_prepared_apply_s,m_allocs_per_solve_apply,\
             m_allocs_per_prepared_apply,m_ws_hwm_elems,m_simd_prepared_apply_s,\
             m_allocs_per_simd_prepared_apply,precond,precision_policy"
        );
        assert_eq!(
            FIG_MIXED_HEADER.join(","),
            "precision_policy,block,batch,setup_blocked_s,setup_interleaved_s,setup_simd_s,\
             setup_speedup_vs_dp,setup_simd_speedup_vs_dp,idr_iters,idr_setup_s,idr_relres,\
             converged"
        );
        assert_eq!(
            FIG_SPIKE_HEADER.join(","),
            "precision,n,bandwidth,partitions,interfaces,setup_ms,factor_ms,reduce_ms,\
             apply_ms,refinements,relres,solve_ms"
        );
    }

    #[test]
    fn precision_policy_runner_matches_full_dp_iterations_here() {
        let a = laplace_2d::<f64>(12, 12);
        let dp = run_idr::<BlockJacobi<f64>>(&a, PrecisionPolicy::FullDp);
        let mixed = run_idr::<BlockJacobi<f64>>(&a, PrecisionPolicy::MixedPromote);
        assert!(dp.converged && mixed.converged);
        // the widened refinement apply preserves preconditioner quality:
        // the iteration count may shift by at most a couple
        assert!(
            mixed.iters.abs_diff(dp.iters) <= 2,
            "{} vs {}",
            mixed.iters,
            dp.iters
        );
    }

    #[test]
    fn mixed_factor_measurement_is_finite_and_positive() {
        let batch = uniform_bench_batch::<f64>(64, 8);
        for precision in [
            PrecisionPolicy::FullDp,
            PrecisionPolicy::MixedPromote,
            PrecisionPolicy::ForceSp,
        ] {
            for layout in [BatchLayout::Blocked, BatchLayout::interleaved()] {
                let g = measure_factor_gflops(&CpuSequential, &batch, layout, precision);
                assert!(
                    g.is_finite() && g > 0.0,
                    "{layout:?}/{}: {g}",
                    precision.label()
                );
            }
            let g = measure_factor_gflops(&CpuSimd, &batch, BatchLayout::interleaved(), precision);
            assert!(g.is_finite() && g > 0.0, "simd/{}: {g}", precision.label());
        }
    }

    #[test]
    fn health_column_reports_all_healthy_for_bench_batches() {
        let batch = uniform_bench_batch::<f64>(48, 8);
        assert_eq!(factor_health_compact(&batch), "healthy=48");
    }

    #[test]
    fn guarded_overhead_measurement_is_finite() {
        let (off, guarded) = measure_guarded_overhead::<f64>(64, 8);
        assert!(off > 0.0 && off.is_finite());
        assert!(guarded > 0.0 && guarded.is_finite());
    }

    #[test]
    fn measured_apply_gflops_and_hwm_are_sane() {
        let batch = uniform_bench_batch::<f64>(64, 8);
        for layout in [BatchLayout::Blocked, BatchLayout::interleaved()] {
            let (g, hwm) = measure_cpu_apply(&batch, layout);
            assert!(g.is_finite() && g > 0.0, "{layout:?}: {g}");
            assert!(hwm > 0, "{layout:?}: workspace must be resident");
        }
    }

    #[test]
    fn block_ilu_runner_converges_and_beats_block_jacobi_here() {
        let a = laplace_2d::<f64>(12, 12);
        let bj = run_idr::<BlockJacobi<f64>>(&a, PrecisionPolicy::FullDp);
        let bilu = run_idr::<BlockIlu0<f64>>(&a, PrecisionPolicy::FullDp);
        assert!(bj.converged && bilu.converged);
        assert!(bilu.iters <= bj.iters);
    }

    #[test]
    fn precond_apply_measurement_is_sane_for_every_kind() {
        for kind in PrecondKind::ALL {
            let (g, hwm) = measure_precond_apply::<f64>(kind, 48, 8);
            assert!(g.is_finite() && g > 0.0, "{kind:?}: {g}");
            assert!(hwm > 0, "{kind:?}: workspace must be resident");
        }
    }

    #[test]
    fn block_tridiag_system_has_the_advertised_pattern() {
        use vbatch_sparse::BlockPattern;
        let (a, part) = block_tridiag_system::<f64>(5, 3);
        assert_eq!(a.nrows(), 15);
        let pattern = BlockPattern::build(&a, &part);
        for i in 0..part.len() {
            assert_eq!(pattern.lower_cols(i).len(), usize::from(i > 0));
            assert_eq!(pattern.upper_cols(i).len(), usize::from(i + 1 < part.len()));
        }
    }

    #[test]
    fn sweeps_are_sane() {
        assert_eq!(*BATCH_SWEEP.last().unwrap(), 40_000);
        assert_eq!(size_sweep().len(), 32);
        assert_eq!(BLOCK_BOUNDS, [8, 12, 16, 24, 32]);
    }
}
