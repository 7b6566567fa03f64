//! Benchmarks of the sparse substrate: SpMV (sequential vs parallel),
//! RCM reordering, and one full preconditioned IDR(4) solve.

use std::hint::black_box;
use std::sync::Arc;
use vbatch_exec::CpuRayon;
use vbatch_precond::{BjMethod, BlockJacobi, PrecondOptions};
use vbatch_rt::bench::{bench, group};
use vbatch_solver::{idr, SolveParams};
use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::{reverse_cuthill_mckee, spmv, spmv_par, supervariable_blocking};

fn bench_spmv() {
    group("spmv");
    for grid in [64usize, 128] {
        let a = laplace_2d::<f64>(grid, grid);
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i % 5) as f64).collect();
        let mut y = vec![0.0; a.nrows()];
        bench(&format!("sequential/{}", a.nrows()), || {
            spmv(&a, &x, &mut y);
            black_box(y[0])
        });
        bench(&format!("parallel/{}", a.nrows()), || {
            spmv_par(&a, &x, &mut y);
            black_box(y[0])
        });
    }
}

fn bench_rcm() {
    group("rcm");
    let a = laplace_2d::<f64>(60, 60);
    bench("rcm_3600", || black_box(reverse_cuthill_mckee(&a)).len());
}

fn bench_full_solve() {
    group("idr4_block_jacobi");
    let mesh = MeshGraph::grid2d(16, 16);
    let a = fem_block_matrix::<f64>(&mesh, 4, 0.4, 0.1, 5);
    let part = supervariable_blocking(&a, 32);
    let rhs = vec![1.0; a.nrows()];
    bench("setup_plus_solve", || {
        let opts = PrecondOptions::default().with_method(BjMethod::SmallLu);
        let m = BlockJacobi::setup_opts(&a, &part, Arc::new(CpuRayon), opts).unwrap();
        let r = idr(&a, &rhs, 4, &m, &SolveParams::default());
        assert!(r.converged());
        black_box(r.iterations)
    });
}

fn main() {
    bench_spmv();
    bench_rcm();
    bench_full_solve();
}
