//! The paper's headline use case: accelerate IDR(4) on a sparse FEM
//! system with a block-Jacobi preconditioner whose diagonal blocks are
//! found by supervariable blocking and factorized with the batched
//! small-size LU.
//!
//! ```sh
//! cargo run --release --example block_jacobi_solve
//! ```

use std::sync::Arc;
use vbatch_lu::prelude::*;
use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};

fn main() {
    // a 2D FEM-like problem: 40x40 mesh nodes, 4 dofs each -> n = 6400
    let mesh = MeshGraph::grid2d(40, 40);
    let a = fem_block_matrix::<f64>(&mesh, 4, 0.45, 0.1, 77);
    let n = a.nrows();
    let b = vec![1.0; n];
    println!("problem: n = {n}, nnz = {}", a.nnz());

    let params = SolveParams::default();

    // --- unpreconditioned -----------------------------------------------
    let t = std::time::Instant::now();
    let plain = idr(&a, &b, 4, &Identity::new(n), &params);
    report("IDR(4), no preconditioner", &plain, t.elapsed(), 0.0);

    // --- scalar Jacobi -----------------------------------------------------
    let t = std::time::Instant::now();
    let jac = Jacobi::setup(&a).unwrap();
    let r = idr(&a, &b, 4, &jac, &params);
    report("IDR(4) + Jacobi", &r, t.elapsed(), 0.0);

    // --- block-Jacobi via the batched factorizations -----------------------
    let part = supervariable_blocking(&a, 32);
    println!(
        "\nsupervariable blocking(32): {} blocks, sizes {}..{}",
        part.len(),
        part.sizes().iter().min().unwrap(),
        part.max_size()
    );
    for method in [
        BjMethod::SmallLu,
        BjMethod::GaussHuard,
        BjMethod::GaussHuardT,
        BjMethod::GjeInvert,
    ] {
        let t = std::time::Instant::now();
        let opts = PrecondOptions::default().with_method(method);
        let bj = BlockJacobi::setup_opts(&a, &part, Arc::new(CpuSimd), opts).unwrap();
        let setup = bj.setup_time.as_secs_f64();
        let r = idr(&a, &b, 4, &bj, &params);
        report(
            &format!("IDR(4) + block-Jacobi [{}]", method.label()),
            &r,
            t.elapsed(),
            setup,
        );
    }
}

fn report(label: &str, r: &SolveResult<f64>, total: std::time::Duration, setup_s: f64) {
    println!(
        "{label:<38} iters {:>5}  relres {:.2e}  setup {:.1} ms  total {:.1} ms  [{:?}]",
        r.iterations,
        r.final_relres,
        setup_s * 1e3,
        total.as_secs_f64() * 1e3,
        r.reason
    );
}
