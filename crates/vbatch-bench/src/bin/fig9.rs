//! **Figure 9**: total execution time (preconditioner setup + IDR(4)
//! solve) with block-Jacobi based on LU, GH or GH-T, supervariable
//! bound 32, over the test suite, problems sorted by runtime.
//!
//! Shape to reproduce: the three methods track each other closely —
//! differences come from rounding-induced iteration-count changes, not
//! from one factorization being systematically superior.
//!
//! `--quick` runs a 12-problem subset.

use std::sync::Arc;
use vbatch_bench::{run_precond_idr, write_csv};
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
    println!("Figure 9: total time (setup+solve), IDR(4) + block-Jacobi(32)");
    println!(
        "{} problems{}",
        problems.len(),
        if quick { " (quick)" } else { "" }
    );

    struct Entry {
        id: usize,
        name: &'static str,
        times: [Option<f64>; 3],
    }
    let methods = [
        PlanMethod::Lu,
        PlanMethod::GaussHuard,
        PlanMethod::GaussHuardT,
    ];
    let mut entries = Vec::new();
    for p in &problems {
        let a = p.build();
        let part = supervariable_blocking(&a, 32);
        let mut times = [None; 3];
        for (i, &m) in methods.iter().enumerate() {
            let (backend, dp) = (Arc::new(CpuSimd), PrecisionPolicy::FullDp);
            if let Some(o) = run_precond_idr::<BlockJacobi<f64>>(&a, &part, m, backend, dp) {
                if o.converged {
                    times[i] = Some(o.total_s());
                }
            }
        }
        entries.push(Entry {
            id: p.id,
            name: p.name,
            times,
        });
    }
    // sort by LU total time (non-converged cases last), as in the figure
    entries.sort_by(|a, b| {
        let ka = a.times[0].unwrap_or(f64::INFINITY);
        let kb = b.times[0].unwrap_or(f64::INFINITY);
        ka.total_cmp(&kb)
    });

    println!(
        "\n{:>4} {:<18} {:>12} {:>12} {:>12}",
        "ID", "matrix", "LU [s]", "GH [s]", "GH-T [s]"
    );
    let mut rows = Vec::new();
    let mut missing = 0usize;
    for e in &entries {
        let f = |t: Option<f64>| t.map(|x| format!("{x:.4}")).unwrap_or("-".into());
        println!(
            "{:>4} {:<18} {:>12} {:>12} {:>12}",
            e.id,
            e.name,
            f(e.times[0]),
            f(e.times[1]),
            f(e.times[2])
        );
        if e.times.iter().any(|t| t.is_none()) {
            missing += 1;
        }
        rows.push(vec![
            e.id.to_string(),
            e.name.to_string(),
            f(e.times[0]),
            f(e.times[1]),
            f(e.times[2]),
        ]);
    }
    println!("\nproblems with at least one non-converged variant: {missing}");
    // summary: geometric-mean ratios vs LU
    for (i, label) in [(1usize, "GH"), (2, "GH-T")] {
        let mut logsum = 0.0;
        let mut count = 0usize;
        for e in &entries {
            if let (Some(lu), Some(other)) = (e.times[0], e.times[i]) {
                logsum += (other / lu).ln();
                count += 1;
            }
        }
        if count > 0 {
            println!(
                "geomean time ratio {label}/LU over {count} problems: {:.3}",
                (logsum / count as f64).exp()
            );
        }
    }
    let path = write_csv(
        "fig9",
        &["id", "matrix", "lu_total_s", "gh_total_s", "ght_total_s"],
        &rows,
    );
    println!("CSV written to {}", path.display());
}
