//! Benchmarks of the block-Jacobi pipeline: supervariable blocking,
//! extraction, preconditioner setup per method, and the per-iteration
//! application cost (the trade-off §II-C discusses: factorization-based
//! solves versus inversion-based GEMV).

use std::hint::black_box;
use std::sync::Arc;
use vbatch_exec::CpuRayon;
use vbatch_precond::{BjMethod, BlockJacobi, PrecondOptions, Preconditioner};
use vbatch_rt::bench::{bench, group};
use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};
use vbatch_sparse::{extract_diag_blocks, supervariable_blocking, BlockPartition, CsrMatrix};

fn problem() -> CsrMatrix<f64> {
    let mesh = MeshGraph::grid2d(30, 30);
    fem_block_matrix::<f64>(&mesh, 4, 0.4, 0.1, 13)
}

fn setup(a: &CsrMatrix<f64>, part: &BlockPartition, method: BjMethod) -> BlockJacobi<f64> {
    let opts = PrecondOptions::default().with_method(method);
    BlockJacobi::setup_opts(a, part, Arc::new(CpuRayon), opts).unwrap()
}

const METHODS: [BjMethod; 4] = [
    BjMethod::SmallLu,
    BjMethod::GaussHuard,
    BjMethod::GaussHuardT,
    BjMethod::GjeInvert,
];

fn bench_blocking_and_extraction(a: &CsrMatrix<f64>) {
    group("blocking_extraction");
    bench("supervariable_blocking(32)", || {
        black_box(supervariable_blocking(a, 32)).len()
    });
    let part = supervariable_blocking(a, 32);
    bench("extract_diag_blocks", || {
        black_box(extract_diag_blocks(a, &part)).len()
    });
}

fn bench_setup(a: &CsrMatrix<f64>) {
    group("bj_setup");
    let part = supervariable_blocking(a, 32);
    for method in METHODS {
        bench(&format!("setup/{}/{}", method.label(), part.len()), || {
            let m = setup(a, &part, method);
            black_box(m.partition().len())
        });
    }
}

fn bench_apply(a: &CsrMatrix<f64>) {
    group("bj_apply");
    let part = supervariable_blocking(a, 32);
    let v: Vec<f64> = (0..a.nrows()).map(|i| (i % 11) as f64 - 5.0).collect();
    for method in METHODS {
        let m = setup(a, &part, method);
        bench(&format!("apply/{}/{}", method.label(), a.nrows()), || {
            let mut x = v.clone();
            m.apply_inplace(&mut x);
            black_box(x[0])
        });
    }
}

fn main() {
    let a = problem();
    bench_blocking_and_extraction(&a);
    bench_setup(&a);
    bench_apply(&a);
}
