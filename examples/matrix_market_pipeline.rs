//! End-to-end pipeline on a Matrix Market file: read a `.mtx`, analyze
//! its structure, reorder with RCM, build the block-Jacobi
//! preconditioner and solve with IDR(4).
//!
//! ```sh
//! cargo run --release --example matrix_market_pipeline [path/to/matrix.mtx]
//! ```
//!
//! Without an argument, a sample matrix is generated, written to a
//! temporary `.mtx` and read back — demonstrating the full round trip.

use std::sync::Arc;
use vbatch_lu::prelude::*;
use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};
use vbatch_sparse::{matrix_stats, read_matrix_market, write_matrix_market};

fn main() {
    let arg = std::env::args().nth(1);
    let (path, cleanup) = match arg {
        Some(p) => (std::path::PathBuf::from(p), false),
        None => {
            let mesh = MeshGraph::grid2d(24, 24);
            let a = fem_block_matrix::<f64>(&mesh, 3, 0.4, 0.05, 31);
            let p = std::env::temp_dir().join("vbatch_sample.mtx");
            write_matrix_market(&a, &p).expect("write sample");
            println!(
                "no input given — wrote a sample FEM matrix to {}",
                p.display()
            );
            (p, true)
        }
    };

    let a: CsrMatrix<f64> = read_matrix_market(&path).expect("parse MatrixMarket");
    let s = matrix_stats(&a);
    println!(
        "\nmatrix: n = {}, nnz = {}, avg row = {:.1}, max row = {}, imbalance = {:.1}, bandwidth = {}",
        s.n, s.nnz, s.avg_row_nnz, s.max_row_nnz, s.imbalance, s.bandwidth
    );

    // RCM reordering (restores locality if the file ordering scrambled it)
    let rcm = reverse_cuthill_mckee(&a);
    let a = a.permute_symmetric(&rcm);
    println!("after RCM: bandwidth = {}", a.bandwidth());

    let part = supervariable_blocking(&a, 32);
    println!(
        "supervariable blocking(32): {} blocks (max {})",
        part.len(),
        part.max_size()
    );

    let n = a.nrows();
    let b = vec![1.0; n];
    let params = SolveParams::default();
    let opts = PrecondOptions::default().with_method(BjMethod::SmallLu);
    let bj = BlockJacobi::setup_opts(&a, &part, Arc::new(CpuSimd), opts)
        .expect("the partition covers the matrix");
    let t = std::time::Instant::now();
    let r = idr(&a, &b, 4, &bj, &params);
    println!(
        "\nIDR(4) + block-Jacobi(LU): {} iterations, relres {:.2e}, {:?} [{:?}]",
        r.iterations,
        r.final_relres,
        t.elapsed(),
        r.reason
    );

    if cleanup {
        let _ = std::fs::remove_file(&path);
    }
}
