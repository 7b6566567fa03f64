//! **SPIKE partition-scaling** (EXPERIMENTS.md §H): the split solver's
//! cost anatomy as the partition count grows on a fixed banded system.
//!
//! One row per feasible partition count `p`: setup wall time split into
//! the batched partition factorization (`factor_ms`) and the
//! spike-formation + reduced-coupling work (`reduce_ms`), then the
//! truncated-SPIKE + iterative-refinement solve — refinement count,
//! converged relative residual and solve wall time. `p = 1` is the
//! monolithic baseline (no interfaces, no reduced system); larger `p`
//! trades a growing reduced system and more refinement sweeps for
//! smaller — batchable — partition factorizations, which is the trade
//! the paper's batched kernels exist to win.
//!
//! `--quick` shrinks the system from 4096 to 1024 unknowns.

use std::sync::Arc;

use vbatch_bench::{banded_bench_system, write_csv, FIG_SPIKE_HEADER};
use vbatch_core::Scalar;
use vbatch_exec::{Backend, CpuSequential, Phase};
use vbatch_precond::{BlockPreconditioner, PrecondOptions};
use vbatch_solver::SpikeSolver;
use vbatch_sparse::SpikePartition;

/// Partition counts swept per precision (clipped to feasibility:
/// every partition must hold at least `2 * bandwidth` rows).
const PARTITION_SWEEP: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn run<T: Scalar>(n: usize, bw: usize, tol: f64, rows: &mut Vec<Vec<String>>) {
    let a = banded_bench_system::<T>(n, bw, 2.0, 42);
    let b: Vec<T> = (0..n)
        .map(|i| T::from_f64(((i * 17 + 5) % 23) as f64 / 23.0 - 0.4))
        .collect();

    println!(
        "\n-- {} precision, n = {n}, bandwidth = {bw} --",
        T::PRECISION
    );
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7} {:>10} {:>10}",
        "p", "ifaces", "setup[ms]", "factor", "reduce", "apply", "refine", "relres", "solve[ms]"
    );
    let max_p = SpikePartition::max_partitions(n, bw);
    for p in PARTITION_SWEEP.into_iter().filter(|&p| p <= max_p) {
        let sp = SpikePartition::uniform(n, p, bw).expect("sweep stays feasible");
        let m = SpikeSolver::setup(
            &a,
            &sp,
            Arc::new(CpuSequential) as Arc<dyn Backend<T>>,
            PrecondOptions::default(),
        )
        .expect("spike bench setup");
        let out = m.solve_with(&b, tol, 100);
        assert!(
            out.converged,
            "p = {p}: refinement must reach {tol:.0e} (got {})",
            out.relres
        );
        let setup_ms = m.setup_time.as_secs_f64() * 1e3;
        let factor_ms = m.stats.phase_time(Phase::Factorize).as_secs_f64() * 1e3;
        // spike formation = its 2k batched solves (booked as setup-side
        // Apply) + the copies and reduced assembly around them (Reduce)
        let reduce = m.stats.phase_time(Phase::Apply) + m.stats.phase_time(Phase::Reduce);
        let reduce_ms = reduce.as_secs_f64() * 1e3;
        let apply_ms = m.apply_stats().phase_time(Phase::Apply).as_secs_f64() * 1e3;
        let solve_ms = out.solve_time.as_secs_f64() * 1e3;
        println!(
            "{p:>6} {:>6} {setup_ms:>10.3} {factor_ms:>10.3} {reduce_ms:>10.3} \
             {apply_ms:>10.3} {:>7} {:>10.2e} {solve_ms:>10.3}",
            sp.interfaces(),
            out.refinements,
            out.relres
        );
        rows.push(vec![
            T::PRECISION.to_string(),
            n.to_string(),
            bw.to_string(),
            p.to_string(),
            sp.interfaces().to_string(),
            format!("{setup_ms:.6}"),
            format!("{factor_ms:.6}"),
            format!("{reduce_ms:.6}"),
            format!("{apply_ms:.6}"),
            out.refinements.to_string(),
            format!("{:.3e}", out.relres),
            format!("{solve_ms:.6}"),
        ]);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 1_024 } else { 4_096 };
    let bw = 2;

    println!("SPIKE partition scaling: truncated split + iterative refinement");
    println!(
        "system: seeded diagonally-dominant band, n = {n}, half-bandwidth {bw}{}",
        if quick { " (quick mode)" } else { "" }
    );

    let mut rows = Vec::new();
    run::<f64>(n, bw, 1e-10, &mut rows);
    run::<f32>(n, bw, 1e-5, &mut rows);

    println!(
        "\nreading: factor_ms falls with p (smaller partitions, more batch \
         parallelism for the paper's kernels) while reduce_ms and the \
         refinement count grow — the truncation error the outer loop \
         repairs. The crossover picks the partition count."
    );
    let path = write_csv("fig_spike", &FIG_SPIKE_HEADER, &rows);
    println!("\nCSV written to {}", path.display());
}
