//! **Table I**: iterations and execution time of IDR(4) with scalar
//! Jacobi and with small-size-LU block-Jacobi under supervariable
//! bounds 8/12/16/24/32, for every matrix of the (synthetic) suite.
//!
//! Shape to reproduce: larger bounds typically reduce both the
//! iteration count and the time to solution; a few problems fail to
//! converge with some configurations ("-" entries, as in the paper).
//!
//! `--quick` runs a 12-problem subset.

use std::sync::Arc;
use vbatch_bench::{fmt_outcome, run_jacobi_idr, run_precond_idr, write_csv, BLOCK_BOUNDS};
use vbatch_exec::{CpuSimd, PlanMethod, PrecisionPolicy};
use vbatch_precond::BlockJacobi;
use vbatch_sparse::{supervariable_blocking, table1_suite};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let suite = table1_suite();
    let problems: Vec<_> = if quick {
        suite.into_iter().take(12).collect()
    } else {
        suite
    };
    println!("Table I: IDR(4) with Jacobi / block-Jacobi preconditioning");
    println!(
        "{} problems{}; '-' marks non-convergence within 10,000 iterations\n",
        problems.len(),
        if quick { " (quick)" } else { "" }
    );
    print!(
        "{:<18} {:>7} {:>9} {:>3} | {:>6} {:>8}",
        "Matrix", "n", "nnz", "ID", "Jac it", "time[s]"
    );
    for b in BLOCK_BOUNDS {
        print!(" | {:>6} {:>8}", format!("BJ({b})"), "time[s]");
    }
    println!();

    let mut rows = Vec::new();
    let mut bj_beats_jacobi = 0usize;
    let mut larger_bound_wins = 0usize;
    let mut comparable = 0usize;
    for p in &problems {
        let a = p.build();
        let jac = run_jacobi_idr(&a);
        let mut row = vec![
            p.name.to_string(),
            a.nrows().to_string(),
            a.nnz().to_string(),
            p.id.to_string(),
        ];
        let (ji, jt) = fmt_outcome(&jac);
        print!(
            "{:<18} {:>7} {:>9} {:>3} | {:>6} {:>8}",
            p.name,
            a.nrows(),
            a.nnz(),
            p.id,
            ji,
            jt
        );
        row.push(ji);
        row.push(jt);
        let mut bound_outcomes = Vec::new();
        for &bound in &BLOCK_BOUNDS {
            let o = run_precond_idr::<BlockJacobi<f64>>(
                &a,
                &supervariable_blocking(&a, bound),
                PlanMethod::Lu,
                Arc::new(CpuSimd),
                PrecisionPolicy::FullDp,
            );
            let (it, t) = fmt_outcome(&o);
            print!(" | {it:>6} {t:>8}");
            row.push(it);
            row.push(t);
            bound_outcomes.push(o);
        }
        println!();
        rows.push(row);
        // aggregate the paper's qualitative claims
        if let (Some(j), Some(b32)) = (jac, bound_outcomes.last().copied().flatten()) {
            if j.converged && b32.converged && b32.iters < j.iters {
                bj_beats_jacobi += 1;
            }
        }
        if let (Some(b8), Some(b32)) = (bound_outcomes[0], bound_outcomes[4]) {
            if b8.converged && b32.converged {
                comparable += 1;
                if b32.iters <= b8.iters {
                    larger_bound_wins += 1;
                }
            }
        }
    }
    println!(
        "\nblock-Jacobi(32) needs fewer iterations than scalar Jacobi on {bj_beats_jacobi}/{} problems",
        problems.len()
    );
    println!(
        "bound 32 <= bound 8 in iterations on {larger_bound_wins}/{comparable} comparable problems"
    );

    let mut header: Vec<String> = vec![
        "matrix".into(),
        "n".into(),
        "nnz".into(),
        "id".into(),
        "jacobi_iters".into(),
        "jacobi_time_s".into(),
    ];
    for b in BLOCK_BOUNDS {
        header.push(format!("bj{b}_iters"));
        header.push(format!("bj{b}_time_s"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let path = write_csv("table1", &header_refs, &rows);
    println!("CSV written to {}", path.display());
}
