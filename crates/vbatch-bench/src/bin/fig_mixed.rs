//! **Mixed-precision frontier**: the SP / mixed / DP trade-off the
//! precision-policy refactor exists to expose.
//!
//! Two sections:
//!
//! * **setup frontier** — best-of-3 `CpuSequential` factorization
//!   seconds for the fig4/fig5 configuration (uniform batch, blocks 16
//!   and 32) under each policy and both layouts, with the speedup of
//!   each policy's blocked setup over the full-DP baseline. Lowered
//!   storage halves the factor traffic, so `mixed`/`sp` must beat `dp`
//!   here — the measurable half of the PR's acceptance criterion.
//! * **iteration frontier** — a preconditioned IDR(4)+block-Jacobi
//!   solve under each policy on the same 2-D Laplacian: iterations,
//!   setup seconds and converged relative residual. The other half of
//!   the criterion: the converged residual must match full DP to
//!   tolerance, i.e. lowering storage buys setup time without costing
//!   convergence.
//!
//! `--quick` shrinks the batch from the paper's 20,000 to 2,000.

use std::sync::Arc;
use vbatch_bench::{
    measure_factor_gflops, run_precond_idr, uniform_bench_batch, write_csv, FIG_MIXED_HEADER,
};
use vbatch_core::BatchLayout;
use vbatch_exec::{CpuSequential, CpuSimd, PlanMethod, PrecisionPolicy};
use vbatch_precond::BlockJacobi;
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::BlockPartition;

/// Seconds of one best-of-3 factorization, recovered from the GFLOPS
/// measurement (which already does the best-of-3 dance).
fn setup_seconds(
    batch: &vbatch_core::MatrixBatch<f64>,
    layout: BatchLayout,
    precision: PrecisionPolicy,
) -> f64 {
    let gflops = measure_factor_gflops(&CpuSequential, batch, layout, precision);
    batch.getrf_flops() / (gflops * 1e9)
}

/// [`setup_seconds`] with the interleaved classes on all threads
/// (`CpuSimd`). Lowered storage doubles the lanes per SIMD register, so
/// the interleaved columns are where the SP flop-rate advantage of the
/// paper's mixed strategy shows up on a host.
fn setup_simd_seconds(batch: &vbatch_core::MatrixBatch<f64>, precision: PrecisionPolicy) -> f64 {
    let gflops = measure_factor_gflops(&CpuSimd, batch, BatchLayout::interleaved(), precision);
    batch.getrf_flops() / (gflops * 1e9)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let batch_count: usize = if quick { 2_000 } else { 20_000 };
    let policies = [
        PrecisionPolicy::FullDp,
        PrecisionPolicy::MixedPromote,
        PrecisionPolicy::ForceSp,
    ];

    println!("Mixed-precision frontier: setup time vs iteration count");
    println!(
        "setup batch = {batch_count}{}",
        if quick { " (quick mode)" } else { "" }
    );

    // iteration frontier inputs: one solve per policy, shared problem
    let a = laplace_2d::<f64>(if quick { 48 } else { 96 }, if quick { 48 } else { 96 });
    let part = BlockPartition::uniform(a.nrows(), 16);

    println!(
        "\n{:>7} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7} {:>10} {:>10} {:>9}",
        "policy",
        "block",
        "blocked [s]",
        "interleav",
        "simd [s]",
        "speedup",
        "simd-up",
        "idr_it",
        "idr_setup",
        "relres",
        "conv"
    );
    let mut rows = Vec::new();
    for &block in &[16usize, 32] {
        let batch = uniform_bench_batch::<f64>(batch_count, block);
        let dp_blocked_s = setup_seconds(&batch, BatchLayout::Blocked, PrecisionPolicy::FullDp);
        let dp_simd_s = setup_simd_seconds(&batch, PrecisionPolicy::FullDp);
        for &precision in &policies {
            let blocked_s = if precision == PrecisionPolicy::FullDp {
                dp_blocked_s
            } else {
                setup_seconds(&batch, BatchLayout::Blocked, precision)
            };
            let inter_s = setup_seconds(&batch, BatchLayout::interleaved(), precision);
            let simd_s = if precision == PrecisionPolicy::FullDp {
                dp_simd_s
            } else {
                setup_simd_seconds(&batch, precision)
            };
            let speedup = dp_blocked_s / blocked_s;
            let simd_speedup = dp_simd_s / simd_s;
            let solve = run_precond_idr::<BlockJacobi<f64>>(
                &a,
                &part,
                PlanMethod::Lu,
                Arc::new(CpuSequential),
                precision,
            )
            .expect("block-Jacobi setup on the Laplacian cannot fail");
            println!(
                "{:>7} {block:>6} {:>12.6} {:>12.6} {:>12.6} {:>7.2}x {:>7.2}x {:>7} {:>9.4}s {:>10.2e} {:>9}",
                precision.label(),
                blocked_s,
                inter_s,
                simd_s,
                speedup,
                simd_speedup,
                solve.iters,
                solve.setup_s,
                solve.relres,
                solve.converged
            );
            rows.push(vec![
                precision.label().to_string(),
                block.to_string(),
                batch_count.to_string(),
                format!("{blocked_s:.6e}"),
                format!("{inter_s:.6e}"),
                format!("{simd_s:.6e}"),
                format!("{speedup:.3}"),
                format!("{simd_speedup:.3}"),
                solve.iters.to_string(),
                format!("{:.6e}", solve.setup_s),
                format!("{:.3e}", solve.relres),
                solve.converged.to_string(),
            ]);
        }
    }
    println!(
        "\nreading: lowered-storage factorization (mixed/sp) trades factor \
         memory traffic for a condest-gated promotion pass; the speedup \
         column shows what that buys at setup while the relres column shows \
         convergence is unharmed — the frontier the precision policy walks."
    );
    let path = write_csv("fig_mixed", &FIG_MIXED_HEADER, &rows);
    println!("\nCSV written to {}", path.display());
}
