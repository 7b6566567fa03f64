//! **Extension** (paper §V, future work): Cholesky-based block-Jacobi
//! for symmetric positive definite problems.
//!
//! On SPD blocks the Cholesky setup does half the flops of LU and needs
//! no pivoting; the preconditioner quality is identical. The bench
//! compares setup time and CG/IDR iteration counts of the LU- and
//! Cholesky-based variants on SPD suite problems.

use std::sync::Arc;
use std::time::Instant;
use vbatch_bench::write_csv;
use vbatch_exec::{CpuSimd, PlanMethod};
use vbatch_precond::{BlockJacobi, BlockPreconditioner, PrecondOptions};
use vbatch_solver::{cg, idr, SolveParams};
use vbatch_sparse::{supervariable_blocking, table1_suite, ProblemClass};

fn main() {
    println!("Extension: Cholesky-based block-Jacobi on SPD problems\n");
    let spd_classes = [
        ProblemClass::Stiffness,
        ProblemClass::Poisson2d,
        ProblemClass::Poisson3d,
        ProblemClass::Thermal,
        ProblemClass::MeshGraph,
        ProblemClass::Anisotropic,
    ];
    let problems: Vec<_> = table1_suite()
        .into_iter()
        .filter(|p| spd_classes.contains(&p.class))
        .take(10)
        .collect();
    println!(
        "{:<18} {:>9} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "matrix", "n", "LU setup", "Chol setup", "CG(LU)", "CG(Ch)", "IDR(Ch)"
    );
    let mut rows = Vec::new();
    for p in &problems {
        let a = p.build();
        if !a.is_symmetric(1e-10) {
            continue;
        }
        let part = supervariable_blocking(&a, 32);
        let b = vec![1.0; a.nrows()];
        let params = SolveParams::default();

        let setup = |method| {
            let opts = PrecondOptions::default().with_method(method);
            BlockJacobi::setup_opts(&a, &part, Arc::new(CpuSimd), opts)
                .expect("the partition covers the matrix")
        };
        let t = Instant::now();
        let lu = setup(PlanMethod::Lu);
        let lu_setup = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let chol = setup(PlanMethod::Cholesky);
        if chol.fallback_blocks > 0 {
            println!("{:<18} blocks not SPD, skipped", p.name);
            continue;
        }
        let chol_setup = t.elapsed().as_secs_f64();

        let cg_lu = cg(&a, &b, &lu, &params);
        let cg_ch = cg(&a, &b, &chol, &params);
        let idr_ch = idr(&a, &b, 4, &chol, &params);
        println!(
            "{:<18} {:>9} {:>9.2}ms {:>9.2}ms {:>9} {:>9} {:>9}",
            p.name,
            a.nrows(),
            lu_setup * 1e3,
            chol_setup * 1e3,
            cg_lu.iterations,
            cg_ch.iterations,
            idr_ch.iterations
        );
        // same preconditioner up to rounding => near-identical CG path
        assert!(
            cg_lu.iterations.abs_diff(cg_ch.iterations) <= 2 + cg_lu.iterations / 20,
            "{}: LU ({}) and Cholesky ({}) block-Jacobi diverge",
            p.name,
            cg_lu.iterations,
            cg_ch.iterations
        );
        rows.push(vec![
            p.name.to_string(),
            a.nrows().to_string(),
            format!("{lu_setup:.5}"),
            format!("{chol_setup:.5}"),
            cg_lu.iterations.to_string(),
            cg_ch.iterations.to_string(),
            idr_ch.iterations.to_string(),
        ]);
    }
    let path = write_csv(
        "ablation_cholesky",
        &[
            "matrix",
            "n",
            "lu_setup_s",
            "chol_setup_s",
            "cg_lu_iters",
            "cg_chol_iters",
            "idr_chol_iters",
        ],
        &rows,
    );
    println!("\nCSV written to {}", path.display());
}
