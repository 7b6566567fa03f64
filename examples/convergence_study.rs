//! Convergence study across Jacobi block-size bounds — the experiment
//! behind Table I's columns: larger bounds usually reduce both the
//! iteration count and the time to solution.
//!
//! ```sh
//! cargo run --release --example convergence_study
//! ```

use std::sync::Arc;
use vbatch_lu::prelude::*;

fn main() {
    // three representative problems from the synthetic Table-I suite
    for name in ["bcsstk17", "ABACUS_shell_ud", "saylr4"] {
        let p = vbatch_sparse::by_name(name).expect("suite entry");
        let a = p.build();
        let n = a.nrows();
        let b = vec![1.0; n];
        println!("\n=== {name} (n = {n}, nnz = {}) ===", a.nnz());
        println!(
            "{:>22} {:>8} {:>12} {:>12}",
            "preconditioner", "iters", "relres", "time"
        );

        let params = SolveParams::default();
        let jac = Jacobi::setup(&a).unwrap();
        let t = std::time::Instant::now();
        let r = idr(&a, &b, 4, &jac, &params);
        print_row("Jacobi", &r, t.elapsed());

        for bound in [8usize, 12, 16, 24, 32] {
            let part = supervariable_blocking(&a, bound);
            let t = std::time::Instant::now();
            let opts = PrecondOptions::default().with_method(BjMethod::SmallLu);
            let bj = BlockJacobi::setup_opts(&a, &part, Arc::new(CpuSimd), opts).unwrap();
            let r = idr(&a, &b, 4, &bj, &params);
            print_row(&format!("block-Jacobi({bound})"), &r, t.elapsed());
        }
    }
}

fn print_row(label: &str, r: &SolveResult<f64>, total: std::time::Duration) {
    let iters = if r.converged() {
        r.iterations.to_string()
    } else {
        format!("{}*", r.iterations)
    };
    println!(
        "{label:>22} {iters:>8} {:>12.2e} {:>9.1} ms",
        r.final_relres,
        total.as_secs_f64() * 1e3
    );
}
