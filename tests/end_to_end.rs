//! Cross-crate integration tests: the full paper pipeline —
//! supervariable blocking -> diagonal-block extraction -> batched
//! factorization -> block-Jacobi preconditioned IDR(4).

use std::sync::Arc;
use vbatch_lu::prelude::*;
use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};

fn bj(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    method: BjMethod,
    backend: impl Backend<f64> + 'static,
) -> BlockJacobi<f64> {
    let opts = PrecondOptions::default().with_method(method);
    BlockJacobi::setup_opts(a, part, Arc::new(backend), opts).unwrap()
}

fn fem_problem() -> CsrMatrix<f64> {
    let mesh = MeshGraph::grid2d(12, 10);
    fem_block_matrix::<f64>(&mesh, 4, 0.45, 0.1, 21)
}

#[test]
fn block_jacobi_idr_beats_scalar_jacobi() {
    let a = fem_problem();
    let n = a.nrows();
    let b = vec![1.0; n];
    let params = SolveParams::default();

    let jac = Jacobi::setup(&a).unwrap();
    let r_scalar = idr(&a, &b, 4, &jac, &params);

    let part = supervariable_blocking(&a, 32);
    let bj = bj(&a, &part, BjMethod::SmallLu, CpuSimd);
    let r_block = idr(&a, &b, 4, &bj, &params);

    assert!(
        r_block.converged(),
        "block-Jacobi run failed: {:?}",
        r_block.reason
    );
    assert!(r_scalar.converged());
    assert!(
        r_block.iterations < r_scalar.iterations,
        "block-Jacobi {} iters vs scalar {} iters",
        r_block.iterations,
        r_scalar.iterations
    );
}

#[test]
fn all_factorization_methods_give_same_preconditioner_quality() {
    let a = fem_problem();
    let n = a.nrows();
    let b = vec![1.0; n];
    let part = supervariable_blocking(&a, 24);
    let params = SolveParams::default();
    let mut iters = Vec::new();
    for m in [
        BjMethod::SmallLu,
        BjMethod::GaussHuard,
        BjMethod::GaussHuardT,
    ] {
        let bj = bj(&a, &part, m, CpuSimd);
        let r = idr(&a, &b, 4, &bj, &params);
        assert!(r.converged(), "{m:?} failed");
        iters.push(r.iterations);
    }
    // LU- and GH-based preconditioners may round differently but must be
    // in the same ballpark (the Fig. 8 claim)
    let min = *iters.iter().min().unwrap() as f64;
    let max = *iters.iter().max().unwrap() as f64;
    assert!(max / min < 1.5, "iteration counts diverge: {iters:?}");
}

#[test]
fn simt_extraction_matches_cpu_reference_on_fem_problem() {
    use vbatch_simt::{ExtractBatch, ExtractStrategy};
    let a = fem_problem();
    let part = supervariable_blocking(&a, 16);
    let cpu = extract_diag_blocks(&a, &part);
    let row_ptr: Vec<u32> = a.row_ptr().iter().map(|&x| x as u32).collect();
    let col_idx: Vec<u32> = a.col_idx().iter().map(|&x| x as u32).collect();
    let mut dev = ExtractBatch::upload(&row_ptr, &col_idx, a.values(), part.as_ptr());
    for strategy in [ExtractStrategy::RowPerLane, ExtractStrategy::SharedMem] {
        dev.run_all(strategy);
        for blk in 0..part.len() {
            assert_eq!(
                dev.block_host(blk),
                cpu.block(blk),
                "{strategy:?} block {blk}"
            );
        }
        dev.clear_output();
    }
}

#[test]
fn simt_factorization_pipeline_solves_extracted_blocks() {
    use vbatch_simt::{GetrfSmallSize, LuTrsvBatch};
    let a = fem_problem();
    let part = supervariable_blocking(&a, 8);
    let blocks = extract_diag_blocks(&a, &part);
    // one rhs entry per row
    let rhs: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 4) as f64).collect();
    let mut fact = GetrfSmallSize::upload(&blocks);
    fact.run_all().unwrap();
    let mut solve = LuTrsvBatch::from_factorization(&fact, &rhs);
    solve.run_all().unwrap();
    // compare against the CPU block-Jacobi application
    let bj = bj(&a, &part, BjMethod::SmallLu, CpuSequential);
    let want = bj.apply(&rhs);
    let mut off = 0usize;
    for blk in 0..part.len() {
        let x = solve.solution_host(blk);
        for (i, &xi) in x.iter().enumerate() {
            assert!(
                (xi - want[off + i]).abs() < 1e-10,
                "block {blk} entry {i}: {xi} vs {}",
                want[off + i]
            );
        }
        off += x.len();
    }
}

#[test]
fn rcm_improves_block_coverage_on_scrambled_problem() {
    use vbatch_sparse::block_coverage;
    let a = fem_problem();
    let n = a.nrows();
    // scramble destroys the supervariable structure
    let scramble: Vec<usize> = (0..n).map(|i| (i * 523 + 11) % n).collect();
    assert!(vbatch_sparse::is_permutation(&scramble));
    let shuffled = a.permute_symmetric(&scramble);
    let p_bad = supervariable_blocking(&shuffled, 32);
    let rcm = reverse_cuthill_mckee(&shuffled);
    let restored = shuffled.permute_symmetric(&rcm);
    let p_good = supervariable_blocking(&restored, 32);
    let cov_bad = block_coverage(&shuffled, &p_bad);
    let cov_good = block_coverage(&restored, &p_good);
    assert!(
        cov_good > cov_bad,
        "RCM should improve coverage: {cov_bad:.3} -> {cov_good:.3}"
    );
}
