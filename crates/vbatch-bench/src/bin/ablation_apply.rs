//! **Ablation E** (paper §II-C): factorization-based versus
//! inversion-based block-Jacobi — how the work splits between setup and
//! per-iteration application.
//!
//! * factorization (this paper): setup `2/3 n³` flops/block, apply = two
//!   triangular solves (`2 n²` flops, inherently sequential sweeps);
//! * inversion (ref.\[4\]): setup `2 n³` flops/block (explicit inverse),
//!   apply = one GEMV (`2 n²` flops, fully parallel, latency-friendly).
//!
//! The crossover depends on how many Krylov iterations the solver runs:
//! the table prints the estimated per-application speedup of GEMV and
//! the break-even iteration count at which the inversion's 3× setup
//! premium pays off.
//!
//! A second, *measured* section compares the two host apply paths for
//! the same batch: the legacy `Backend::solve` (rebuilds its dispatch
//! and allocates every call) against the prepared workspace apply
//! (`Backend::solve_prepared`, all dispatch and scratch precomputed).
//! With the counting allocator installed as the global allocator, the
//! table also reports heap allocations per application — the prepared
//! column must read zero. The `simd` columns repeat the prepared
//! measurement on `CpuSimd`, whose apply is the same code on the same
//! thread (the CSV keeps its schema).

use std::sync::Arc;
use std::time::Instant;
use vbatch_bench::{
    parse_precision_flag, parse_precond_flag, uniform_bench_batch, write_csv, PrecondKind,
    ABLATION_APPLY_HEADER,
};
use vbatch_core::VectorBatch;
use vbatch_exec::{
    Backend, BatchPlan, BlockSolve, CpuSequential, CpuSimd, ExecStats, PlanMethod, PrecisionPolicy,
};
use vbatch_precond::{BlockIlu0, BlockJacobi, BlockPreconditioner, PrecondOptions};
use vbatch_rt::CountingAlloc;
use vbatch_simt::kernels::{gemv, getrf, trsv};
use vbatch_simt::{CostTable, DeviceModel};
use vbatch_solver::{idr, SolveParams};
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::BlockPartition;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Batch size of the measured host section (the analytic section keeps
/// the paper's 40,000; measurement needs far fewer systems to settle).
const MEASURED_BATCH: usize = 4_000;

struct MeasuredApply {
    solve_s: f64,
    prepared_s: f64,
    allocs_solve: u64,
    allocs_prepared: u64,
    ws_hwm_elems: usize,
}

/// Time one full-batch preconditioner application through both paths
/// (best of three) on an explicit backend and count heap allocations of
/// a single application.
fn measure_apply(
    n: usize,
    backend: &dyn Backend<f64>,
    precision: PrecisionPolicy,
) -> MeasuredApply {
    let batch = uniform_bench_batch::<f64>(MEASURED_BATCH, n);
    let plan = BatchPlan::auto::<f64>(batch.sizes()).with_precision(precision);
    let mut stats = ExecStats::new();
    let factors = backend.factorize(batch.clone(), &plan, &mut stats);
    let total = n * MEASURED_BATCH;
    let flat: Vec<f64> = (0..total).map(|i| 1.0 + (i % 5) as f64).collect();

    // before: the per-call solve path
    let mut rhs = VectorBatch::from_flat(batch.sizes(), &flat);
    backend.solve(&factors, &mut rhs, &mut stats); // warm-up
    let mut solve_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        backend.solve(&factors, &mut rhs, &mut stats);
        solve_s = solve_s.min(t0.elapsed().as_secs_f64());
    }
    let s0 = ALLOC.snapshot();
    backend.solve(&factors, &mut rhs, &mut stats);
    let allocs_solve = ALLOC.snapshot().allocs_since(&s0);

    // after: the prepared workspace path
    let prep = backend.prepare_apply(&factors);
    let mut v = flat;
    backend.solve_prepared(&factors, &prep, &mut v, &mut stats); // warm-up
    let mut prepared_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        backend.solve_prepared(&factors, &prep, &mut v, &mut stats);
        prepared_s = prepared_s.min(t0.elapsed().as_secs_f64());
    }
    let s1 = ALLOC.snapshot();
    backend.solve_prepared(&factors, &prep, &mut v, &mut stats);
    let allocs_prepared = ALLOC.snapshot().allocs_since(&s1);

    MeasuredApply {
        solve_s,
        prepared_s,
        allocs_solve,
        allocs_prepared,
        ws_hwm_elems: prep.workspace_hwm_elems(),
    }
}

/// Tracing overhead on the hot prepared apply (DP, the same
/// `MEASURED_BATCH` as the measured section): best-of-5 timing of one
/// full-batch application with the runtime trace gate open vs closed.
/// With the `trace` feature compiled out both paths are identical
/// no-ops and the overhead reads ~0%.
fn measure_trace_overhead(n: usize) -> (f64, f64) {
    let batch = uniform_bench_batch::<f64>(MEASURED_BATCH, n);
    let plan = BatchPlan::auto::<f64>(batch.sizes());
    let mut stats = ExecStats::new();
    let solve = BlockSolve::new(Arc::new(CpuSequential), batch, &plan, &mut stats);
    let total = n * MEASURED_BATCH;
    let mut v: Vec<f64> = (0..total).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut best = |on: bool| {
        vbatch_rt::trace::set_enabled(on);
        solve.apply(&mut v, &mut stats); // warm-up
        let mut s = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            solve.apply(&mut v, &mut stats);
            s = s.min(t0.elapsed().as_secs_f64());
        }
        s
    };
    let off_s = best(false);
    let on_s = best(true);
    (on_s, off_s)
}

fn main() {
    let device = DeviceModel::p100();
    let precond = parse_precond_flag();
    let precision = parse_precision_flag();
    let table = CostTable::for_element_bytes(8);
    let batch = 40_000u64;
    println!(
        "Ablation E: triangular-solve vs GEMV application (DP, batch = {batch}, \
         measured precision {})",
        precision.label()
    );
    println!(
        "\n{:>5} {:>12} {:>12} {:>10} {:>12} {:>12} {:>11}",
        "size", "trsv [us]", "gemv [us]", "speedup", "LU setup", "inv setup", "break-even"
    );
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 24, 32] {
        let t_trsv = device
            .estimate(&[(trsv::lu_trsv_warp_cost::<f64>(n), batch)], &table)
            .seconds;
        let t_gemv = device
            .estimate(&[(gemv::warp_cost::<f64>(n), batch)], &table)
            .seconds;
        // setup: LU factorization vs explicit inversion (~3x the flops:
        // factorization + n triangular solves); model the inversion as
        // factorize + n column solves through the gemv-style sweeps
        let t_lu_setup = device
            .estimate(&[(getrf::warp_cost::<f64>(n), batch)], &table)
            .seconds;
        let t_inv_setup = t_lu_setup + (n as f64) * 0.6 * t_trsv / 2.0;
        let gain_per_apply = t_trsv - t_gemv;
        let break_even = if gain_per_apply > 0.0 {
            ((t_inv_setup - t_lu_setup) / gain_per_apply).ceil()
        } else {
            f64::INFINITY
        };
        println!(
            "{n:>5} {:>12.1} {:>12.1} {:>9.2}x {:>10.1}us {:>10.1}us {:>11.0}",
            t_trsv * 1e6,
            t_gemv * 1e6,
            t_trsv / t_gemv,
            t_lu_setup * 1e6,
            t_inv_setup * 1e6,
            break_even
        );
        rows.push(vec![
            n.to_string(),
            format!("{:.3e}", t_trsv),
            format!("{:.3e}", t_gemv),
            format!("{:.3e}", t_lu_setup),
            format!("{:.3e}", t_inv_setup),
            format!("{break_even:.0}"),
        ]);
    }
    println!(
        "\nreading: with few solver iterations the factorization approach wins \
         (cheap setup); past the break-even iteration count the inversion-based \
         GEMV application amortizes its 3x setup — the §II-C trade-off."
    );

    println!(
        "\nMeasured host apply paths (CpuSequential, batch = {MEASURED_BATCH}, \
         one full-batch application):"
    );
    println!(
        "{:>5} {:>12} {:>12} {:>9} {:>12} {:>13} {:>10} {:>12} {:>12}",
        "size",
        "solve [us]",
        "prep [us]",
        "speedup",
        "allocs/solve",
        "allocs/prep",
        "ws hwm",
        "simd [us]",
        "allocs/simd"
    );
    for (i, &n) in [4usize, 8, 16, 24, 32].iter().enumerate() {
        let m = measure_apply(n, &CpuSequential, precision);
        // `CpuSimd` over the same (interleaved) plan runs the same
        // sequential apply on the same kernels, so its two columns
        // repeat `prep [us]` / `allocs/prep` up to timing noise
        let ms = measure_apply(n, &CpuSimd, precision);
        println!(
            "{n:>5} {:>12.1} {:>12.1} {:>8.2}x {:>12} {:>13} {:>10} {:>12.1} {:>12}",
            m.solve_s * 1e6,
            m.prepared_s * 1e6,
            m.solve_s / m.prepared_s,
            m.allocs_solve,
            m.allocs_prepared,
            m.ws_hwm_elems,
            ms.prepared_s * 1e6,
            ms.allocs_prepared
        );
        rows[i].push(format!("{:.3e}", m.solve_s));
        rows[i].push(format!("{:.3e}", m.prepared_s));
        rows[i].push(m.allocs_solve.to_string());
        rows[i].push(m.allocs_prepared.to_string());
        rows[i].push(m.ws_hwm_elems.to_string());
        rows[i].push(format!("{:.3e}", ms.prepared_s));
        rows[i].push(ms.allocs_prepared.to_string());
        rows[i].push(precond.label().to_string());
        rows[i].push(precision.label().to_string());
    }
    println!(
        "\nreading: the prepared apply removes every per-application allocation \
         (the allocs/prep and allocs/simd columns are zero) — the host analogue \
         of the paper holding the RHS in registers across the solve."
    );

    // -- tracing section ---------------------------------------------
    // overhead of leaving the instrumentation compiled in and enabled
    // on the hot apply path (the ISSUE budget: < 5% at DP, batch 4000)
    let (on_s, off_s) = measure_trace_overhead(16);
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    println!(
        "\nTracing overhead (prepared apply, n=16, batch {MEASURED_BATCH}): \
         enabled {:.1}us vs disabled {:.1}us ({overhead_pct:+.2}%)",
        on_s * 1e6,
        off_s * 1e6
    );

    // one traced preconditioned IDR(4) solve (preconditioner selected
    // by --precond), exported as chrome-trace JSON (load in a trace
    // viewer: extraction, factorization, sweep, apply and iteration
    // spans all appear)
    vbatch_rt::trace::set_enabled(true);
    vbatch_rt::trace::reset();
    let a = laplace_2d::<f64>(64, 64);
    let part = BlockPartition::uniform(a.nrows(), 16);
    let backend = Arc::new(CpuSequential) as Arc<dyn Backend<f64>>;
    let opts = PrecondOptions::default().with_method(PlanMethod::Lu);
    let b = vec![1.0; a.nrows()];
    let r = match precond {
        PrecondKind::BlockJacobi => {
            let m = BlockJacobi::setup_opts(&a, &part, backend, opts).expect("block-Jacobi setup");
            idr(&a, &b, 4, &m, &SolveParams::default())
        }
        PrecondKind::BlockIlu0 => {
            let m = BlockIlu0::setup_opts(&a, &part, backend, opts).expect("block-ILU(0) setup");
            idr(&a, &b, 4, &m, &SolveParams::default())
        }
        PrecondKind::Spike => {
            let sp = vbatch_sparse::SpikePartition::detect(&a, 8).expect("spike partition");
            let m = vbatch_solver::SpikeSolver::setup(&a, &sp, backend, opts).expect("spike setup");
            idr(&a, &b, 4, &m, &SolveParams::default())
        }
    };
    println!(
        "\nTraced IDR(4)+{} solve: {} iterations, relres {:.3e}",
        precond.label(),
        r.iterations,
        r.final_relres
    );
    let snap = vbatch_rt::trace::snapshot();
    if vbatch_rt::trace::enabled() {
        println!("{snap}");
    }

    let path = write_csv("ablation_apply", &ABLATION_APPLY_HEADER, &rows);
    println!("CSV written to {}", path.display());

    let trace_path = path.with_file_name("ablation_apply_trace.json");
    std::fs::write(&trace_path, snap.chrome_trace_json()).expect("write chrome trace");
    println!("chrome-trace JSON written to {}", trace_path.display());
}
