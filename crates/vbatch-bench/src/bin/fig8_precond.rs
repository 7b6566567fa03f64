//! **Figure 8 (preconditioner edition)**: block-Jacobi versus
//! block-ILU(0) — IDR(4) iteration counts and total runtime over the
//! 48-problem suite, through the generic preconditioner trait.
//!
//! Where the original Fig. 8 compares two *factorizations* of the same
//! block-Jacobi preconditioner (LU vs GH — a wash, by design), this
//! comparison swaps the *preconditioner*: block-ILU(0) keeps the
//! off-diagonal coupling the block-diagonal approximation discards, so
//! on problems with strong inter-block coupling it should cut the
//! iteration count, at the price of a costlier setup (the IKJ sweep)
//! and a costlier apply (two level-scheduled triangular sweeps around
//! the batched diagonal solve).
//!
//! `--quick` runs a 12-problem subset with bounds {8, 32}. Setup, the
//! triangular sweeps and every per-iteration block solve run on
//! `CpuSimd`, over the thread pool; its name fills the `backend` CSV
//! column.

use std::sync::Arc;
use vbatch_bench::{
    fmt_outcome, parse_precision_flag, run_precond_idr, write_csv, BLOCK_BOUNDS,
    FIG8_PRECOND_HEADER,
};
use vbatch_exec::{Backend, CpuSimd, PlanMethod};
use vbatch_precond::{BlockIlu0, BlockJacobi};
use vbatch_sparse::{supervariable_blocking, table1_suite};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let backend: Arc<dyn Backend<f64>> = Arc::new(CpuSimd);
    let backend_label = backend.name();
    let precision = parse_precision_flag();
    let suite = table1_suite();
    let problems: Vec<_> = if quick {
        suite.into_iter().take(12).collect()
    } else {
        suite
    };
    let bounds: Vec<usize> = if quick {
        vec![8, 32]
    } else {
        BLOCK_BOUNDS.to_vec()
    };

    println!("Figure 8 (precond): block-Jacobi vs block-ILU(0), IDR(4)");
    println!(
        "suite: {} problems, bounds {:?}, backend {backend_label}, precision {}{}",
        problems.len(),
        bounds,
        precision.label(),
        if quick { " (quick mode)" } else { "" }
    );

    let mut rows = Vec::new();
    for &bound in &bounds {
        println!("\n-- bound {bound} --");
        println!(
            "{:>18} {:>9} {:>9} {:>10} {:>10}  winner",
            "matrix", "bj_it", "bilu_it", "bj_s", "bilu_s"
        );
        let mut bilu_no_worse = 0usize;
        let mut compared = 0usize;
        for p in &problems {
            let a = p.build();
            let part = supervariable_blocking(&a, bound);
            let bj = run_precond_idr::<BlockJacobi<f64>>(
                &a,
                &part,
                PlanMethod::Lu,
                backend.clone(),
                precision,
            );
            let bilu = run_precond_idr::<BlockIlu0<f64>>(
                &a,
                &part,
                PlanMethod::Lu,
                backend.clone(),
                precision,
            );
            let (bj_it, bj_s) = fmt_outcome(&bj);
            let (bilu_it, bilu_s) = fmt_outcome(&bilu);
            let winner = match (&bj, &bilu) {
                (Some(j), Some(i)) if j.converged && i.converged => {
                    compared += 1;
                    if i.iters <= j.iters {
                        bilu_no_worse += 1;
                    }
                    match i.iters.cmp(&j.iters) {
                        std::cmp::Ordering::Less => "bilu",
                        std::cmp::Ordering::Greater => "bj",
                        std::cmp::Ordering::Equal => "tie",
                    }
                }
                (Some(j), _) if j.converged => "bj",
                (_, Some(i)) if i.converged => "bilu",
                _ => "-",
            };
            println!(
                "{:>18} {bj_it:>9} {bilu_it:>9} {bj_s:>10} {bilu_s:>10}  {winner}",
                p.name
            );
            rows.push(vec![
                bound.to_string(),
                p.name.to_string(),
                bj_it,
                bilu_it,
                bj_s,
                bilu_s,
                winner.to_string(),
                backend_label.to_string(),
                precision.label().to_string(),
            ]);
        }
        println!(
            "  block-ILU(0) iterations <= block-Jacobi on {bilu_no_worse}/{compared} \
             mutually-converged problems"
        );
    }
    let path = write_csv("fig8_precond", &FIG8_PRECOND_HEADER, &rows);
    println!("\nCSV written to {}", path.display());
}
