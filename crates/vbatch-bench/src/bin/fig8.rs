//! **Figure 8**: convergence histogram — IDR(4) iteration overhead of
//! LU-based versus GH-based block-Jacobi over the 48-problem suite, for
//! block-size bounds 8/12/16/24/32.
//!
//! Shape to reproduce: a tall center bar (most problems take the same
//! iteration count with either factorization) and a near-symmetric
//! spread — rounding differences exist but neither factorization is
//! systematically the better preconditioner.
//!
//! `--quick` runs a 12-problem subset with bounds {8, 32}.

use std::sync::Arc;
use vbatch_bench::{run_precond_idr, write_csv, BLOCK_BOUNDS};
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
    let bounds: Vec<usize> = if quick {
        vec![8, 32]
    } else {
        BLOCK_BOUNDS.to_vec()
    };

    println!("Figure 8: LU- vs GH-based block-Jacobi iteration overhead");
    println!(
        "suite: {} problems, bounds {:?}{}",
        problems.len(),
        bounds,
        if quick { " (quick mode)" } else { "" }
    );

    // histogram buckets of overhead percentage, like the paper's x-axis
    let edges = [-100.0f64, -50.0, -20.0, -5.0, 5.0, 20.0, 50.0, 100.0];
    let bucket_label = |i: usize| -> String {
        match i {
            0 => "<-100%".into(),
            i if i == edges.len() => ">100%".into(),
            i => format!("{:.0}..{:.0}%", edges[i - 1], edges[i]),
        }
    };

    let mut rows = Vec::new();
    for &bound in &bounds {
        let mut hist = vec![0usize; edges.len() + 1];
        let mut same = 0usize;
        let mut lu_better = 0usize;
        let mut gh_better = 0usize;
        for p in &problems {
            let a = p.build();
            let part = supervariable_blocking(&a, bound);
            let [lu, gh] = [PlanMethod::Lu, PlanMethod::GaussHuard].map(|method| {
                let (backend, dp) = (Arc::new(CpuSimd), PrecisionPolicy::FullDp);
                run_precond_idr::<BlockJacobi<f64>>(&a, &part, method, backend, dp)
            });
            let (Some(lu), Some(gh)) = (lu, gh) else {
                continue;
            };
            if !lu.converged || !gh.converged {
                println!(
                    "  skipping {} (bound {bound}): LU {}, GH {}",
                    p.name, lu.reason, gh.reason
                );
                continue;
            }
            // positive = LU needed more iterations (GH provided the
            // better preconditioner); the paper plots LU-better left of
            // center and GH-better right
            let overhead =
                (lu.iters as f64 - gh.iters as f64) / lu.iters.min(gh.iters).max(1) as f64 * 100.0;
            match lu.iters.cmp(&gh.iters) {
                std::cmp::Ordering::Less => lu_better += 1,
                std::cmp::Ordering::Greater => gh_better += 1,
                std::cmp::Ordering::Equal => same += 1,
            }
            let b = edges.partition_point(|&e| overhead > e);
            hist[b] += 1;
            rows.push(vec![
                bound.to_string(),
                p.name.to_string(),
                lu.iters.to_string(),
                gh.iters.to_string(),
                format!("{overhead:.1}"),
            ]);
        }
        println!("\n-- bound {bound} --");
        for (i, &count) in hist.iter().enumerate() {
            if count > 0 {
                println!("  {:>12}: {}", bucket_label(i), "#".repeat(count));
            }
        }
        println!("  LU better: {lu_better}   identical: {same}   GH better: {gh_better}");
    }
    let path = write_csv(
        "fig8",
        &["bound", "matrix", "lu_iters", "gh_iters", "overhead_pct"],
        &rows,
    );
    println!("\nCSV written to {}", path.display());
}
