//! Integration tests for the extension features: large blocks, packed
//! warps, GEMV application and smoothed IDR.

use std::sync::Arc;
use vbatch_lu::prelude::*;
use vbatch_sparse::gen::fem::{fem_variable_block_matrix, mixed_dofs, MeshGraph};

fn bj(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    method: PlanMethod,
    backend: impl Backend<f64> + 'static,
) -> BlockJacobi<f64> {
    let opts = PrecondOptions::default().with_method(method);
    BlockJacobi::setup_opts(a, part, Arc::new(backend), opts).unwrap()
}

#[test]
fn large_blocks_flow_through_block_jacobi_via_blocked_lu() {
    // dofs up to 5 agglomerated under a 64 bound exceed the warp limit;
    // the CPU preconditioner handles any size through the dense kernels
    let mesh = MeshGraph::grid2d(8, 8);
    let dofs = mixed_dofs(mesh.nodes, &[3, 5], 4);
    let a = fem_variable_block_matrix::<f64>(&mesh, &dofs, 0.3, 9);
    let part = supervariable_blocking(&a, 64);
    assert!(
        part.max_size() > 32,
        "test needs blocks beyond the warp limit"
    );
    let m = bj(&a, &part, PlanMethod::Lu, CpuSimd);
    let b = vec![1.0; a.nrows()];
    let r = idr(&a, &b, 4, &m, &SolveParams::default());
    assert!(r.converged());
}

#[test]
fn simt_large_kernel_matches_cpu_blocked_on_extracted_blocks() {
    use vbatch_simt::GetrfLarge;
    let mesh = MeshGraph::grid2d(6, 6);
    let dofs = mixed_dofs(mesh.nodes, &[4, 6], 11);
    let a = fem_variable_block_matrix::<f64>(&mesh, &dofs, 0.3, 13);
    let part = supervariable_blocking(&a, 48);
    let blocks = extract_diag_blocks(&a, &part);
    let mut dev = GetrfLarge::upload(&blocks).unwrap();
    dev.run_all().unwrap();
    for i in 0..blocks.len() {
        let m = blocks.block_as_mat(i);
        let cpu = getrf_blocked(&m, 32).unwrap();
        // same solve behaviour (pivot order may differ on exact ties)
        let rhs: Vec<f64> = (0..m.rows()).map(|k| (k % 3) as f64 + 0.5).collect();
        let x_cpu = cpu.solve(&rhs);
        let lu = dev.factors_host(i);
        let perm = dev.perm_host(i);
        let mut x_dev = rhs.clone();
        vbatch_lu::core::lu_solve_inplace(
            TrsvVariant::Eager,
            m.rows(),
            &lu,
            perm.as_slice(),
            &mut x_dev,
        );
        for (p, q) in x_dev.iter().zip(&x_cpu) {
            assert!((p - q).abs() < 1e-8, "block {i}");
        }
    }
}

#[test]
fn gemv_kernel_equals_block_jacobi_inversion_apply() {
    use vbatch_simt::GemvBatch;
    let mesh = MeshGraph::grid2d(5, 5);
    let dofs = mixed_dofs(mesh.nodes, &[2, 3], 21);
    let a = fem_variable_block_matrix::<f64>(&mesh, &dofs, 0.35, 5);
    let part = supervariable_blocking(&a, 8);
    let blocks = extract_diag_blocks(&a, &part);
    let (inv, status) = CpuSequential.invert(&blocks, &mut ExecStats::new());
    assert!(status.iter().all(|s| !s.is_fallback()));
    let v: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
    // SIMT GEMV on the inverted blocks
    let mut dev = GemvBatch::upload(&inv, &v);
    dev.run_all().unwrap();
    // CPU block-Jacobi (inversion-based) reference
    let bj = bj(&a, &part, PlanMethod::GjeInvert, CpuSequential);
    let want = bj.apply(&v);
    let mut off = 0usize;
    for blk in 0..part.len() {
        for (k, &x) in dev.result_host(blk).iter().enumerate() {
            assert!((x - want[off + k]).abs() < 1e-10, "block {blk} entry {k}");
        }
        off += part.size(blk);
    }
}

#[test]
fn smoothed_idr_with_block_jacobi() {
    let p = vbatch_sparse::by_name("Chebyshev2").unwrap();
    let a = p.build();
    let part = supervariable_blocking(&a, 32);
    let m = bj(&a, &part, PlanMethod::Lu, CpuSimd);
    let b = vec![1.0; a.nrows()];
    let plain = idr(&a, &b, 4, &m, &SolveParams::default());
    let smooth = idr_smoothed(&a, &b, 4, &m, &SolveParams::default());
    assert!(plain.converged() && smooth.converged());
    // both genuinely solve the system
    assert!(plain.final_relres < 1.5e-6);
    assert!(smooth.final_relres < 1.5e-6);
}

#[test]
fn condition_estimates_explain_preconditioner_quality() {
    // diagonal blocks of a barely-dominant matrix are much better
    // conditioned than the full operator — the reason block-Jacobi works
    let p = vbatch_sparse::by_name("saylr4").unwrap();
    let a = p.build();
    let part = supervariable_blocking(&a, 32);
    let blocks = extract_diag_blocks(&a, &part);
    let mut worst = 0.0f64;
    for i in 0..blocks.len().min(50) {
        let m = blocks.block_as_mat(i);
        let f = getrf(&m, PivotStrategy::Implicit).unwrap();
        worst = worst.max(condest1(&m, &f));
    }
    assert!(worst.is_finite() && worst >= 1.0);
    assert!(
        worst < 1e6,
        "diagonal blocks should be far better conditioned: {worst}"
    );
}
