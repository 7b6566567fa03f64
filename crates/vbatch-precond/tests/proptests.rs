//! Property-based tests for the preconditioner layer: block-Jacobi with
//! any factorization method must apply the exact block-diagonal inverse,
//! and all methods must agree with each other on arbitrary matrices.

use std::sync::Arc;
use vbatch_core::{DenseMat, FactorError};
use vbatch_exec::{Backend, CpuSequential, CpuSimd};
use vbatch_precond::{
    BjMethod, BlockJacobi, BlockPreconditioner, Jacobi, PrecondOptions, Preconditioner,
};
use vbatch_rt::{run_cases, testgen, SmallRng};
use vbatch_sparse::{supervariable_blocking, BlockPartition, CooMatrix, CsrMatrix};

fn seq() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSequential)
}

fn par() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSimd)
}

fn bj(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    method: BjMethod,
    backend: Arc<dyn Backend<f64>>,
) -> Result<BlockJacobi<f64>, FactorError> {
    BlockJacobi::setup_opts(
        a,
        part,
        backend,
        PrecondOptions::default().with_method(method),
    )
}

fn random_block_system(nodes: usize, dof: usize, extra: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    let n = nodes * dof;
    let mut c = CooMatrix::new(n, n);
    for (i, j, v) in testgen::block_system_triplets(nodes, dof, extra) {
        c.push(i, j, v);
    }
    c.to_csr()
}

fn params(rng: &mut SmallRng) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let nodes = rng.gen_range(2usize..9);
    let dof = rng.gen_range(1usize..6);
    let extra = testgen::extra_couplings(rng, 30, 64, 0.5);
    (nodes, dof, extra)
}

#[test]
fn block_jacobi_applies_exact_block_inverse() {
    run_cases(
        "block_jacobi_applies_exact_block_inverse",
        40,
        |rng, _case| {
            let (nodes, dof, extra) = params(rng);
            let a = random_block_system(nodes, dof, &extra);
            let n = a.nrows();
            let part = BlockPartition::uniform(n, dof);
            let d = a.to_dense();
            let v: Vec<f64> = (0..n).map(|i| (i as f64) * 0.17 - 1.0).collect();
            let m = bj(&a, &part, BjMethod::SmallLu, seq()).unwrap();
            let w = m.apply(&v);
            for b in 0..part.len() {
                let r = part.range(b);
                let block =
                    DenseMat::from_fn(r.len(), r.len(), |i, j| d[(r.start + i, r.start + j)]);
                let x = vbatch_core::solve_system(&block, &v[r.clone()]).unwrap();
                for (k, gi) in r.clone().enumerate() {
                    assert!((w[gi] - x[k]).abs() < 1e-8);
                }
            }
        },
    );
}

#[test]
fn all_methods_agree() {
    run_cases("all_methods_agree", 40, |rng, _case| {
        let (nodes, dof, extra) = params(rng);
        let a = random_block_system(nodes, dof, &extra);
        let part = supervariable_blocking(&a, (dof * 2).max(2));
        let n = a.nrows();
        let v: Vec<f64> = (0..n).map(|i| 1.0 - (i % 4) as f64 / 2.0).collect();
        let reference = bj(&a, &part, BjMethod::SmallLu, seq()).unwrap().apply(&v);
        for method in [
            BjMethod::GaussHuard,
            BjMethod::GaussHuardT,
            BjMethod::GjeInvert,
        ] {
            let w = bj(&a, &part, method, par()).unwrap().apply(&v);
            for (p, q) in reference.iter().zip(&w) {
                assert!((p - q).abs() < 1e-8, "{method:?}");
            }
        }
    });
}

#[test]
fn size_one_partition_equals_scalar_jacobi() {
    run_cases(
        "size_one_partition_equals_scalar_jacobi",
        40,
        |rng, _case| {
            let (nodes, dof, extra) = params(rng);
            let a = random_block_system(nodes, dof, &extra);
            let n = a.nrows();
            let part = BlockPartition::uniform(n, 1);
            let bj = bj(&a, &part, BjMethod::SmallLu, seq()).unwrap();
            let jac = Jacobi::setup(&a).unwrap();
            let v: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
            let w1 = bj.apply(&v);
            let w2 = jac.apply(&v);
            for (p, q) in w1.iter().zip(&w2) {
                assert!((p - q).abs() < 1e-12);
            }
        },
    );
}

#[test]
fn apply_is_linear() {
    run_cases("apply_is_linear", 40, |rng, _case| {
        let (nodes, dof, extra) = params(rng);
        let alpha = rng.gen_range(-2.0f64..2.0);
        let a = random_block_system(nodes, dof, &extra);
        let n = a.nrows();
        let part = supervariable_blocking(&a, 8);
        let m = bj(&a, &part, BjMethod::SmallLu, seq()).unwrap();
        let v: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 / 3.0).sin()).collect();
        // M^{-1}(alpha v + u) = alpha M^{-1} v + M^{-1} u
        let lhs_in: Vec<f64> = v.iter().zip(&u).map(|(x, y)| alpha * x + y).collect();
        let lhs = m.apply(&lhs_in);
        let mv = m.apply(&v);
        let mu = m.apply(&u);
        for i in 0..n {
            let rhs = alpha * mv[i] + mu[i];
            assert!((lhs[i] - rhs).abs() < 1e-7 * (1.0 + rhs.abs()));
        }
    });
}
