//! Property-based cross-validation: every SIMT kernel must agree with
//! the native CPU implementation of the same algorithm on arbitrary
//! well-conditioned inputs — the simulator is an independent second
//! implementation of the whole kernel zoo.

use vbatch_core::{getrf, DenseMat, GhLayout, MatrixBatch, PivotStrategy};
use vbatch_rt::{run_cases, testgen, SmallRng};
use vbatch_simt::{
    GetrfSmallSize, GhBatch, GhSolveBatch, GhStorage, LuTrsvBatch, VendorGetrs, VendorLu,
};

fn block_from_seed(n: usize, seed: u64) -> DenseMat<f64> {
    DenseMat::from_col_major(n, n, &testgen::hashed_dense(n, seed))
}

fn dim_and_seed(rng: &mut SmallRng) -> (usize, u64) {
    (rng.gen_range(1usize..33), rng.next_u64())
}

#[test]
fn simt_getrf_equals_cpu() {
    run_cases("simt_getrf_equals_cpu", 48, |rng, _case| {
        let (n, seed) = dim_and_seed(rng);
        let a = block_from_seed(n, seed);
        let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
        let mut dev = GetrfSmallSize::upload(&batch);
        dev.run_all().unwrap();
        let cpu = getrf(&a, PivotStrategy::Implicit).unwrap();
        let perm = dev.perm_host(0);
        assert_eq!(perm.as_slice(), cpu.perm.as_slice());
        for (x, y) in dev.factors_host(0).iter().zip(cpu.lu.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
    });
}

#[test]
fn simt_lu_solve_equals_cpu() {
    run_cases("simt_lu_solve_equals_cpu", 48, |rng, _case| {
        let (n, seed) = dim_and_seed(rng);
        let a = block_from_seed(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) / 4.0 - 1.5).collect();
        let rhs = a.matvec(&x_true);
        let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
        let mut fact = GetrfSmallSize::upload(&batch);
        fact.run_all().unwrap();
        let mut solve = LuTrsvBatch::from_factorization(&fact, &rhs);
        solve.run_all().unwrap();
        let x_simt = solve.solution_host(0);
        let cpu = getrf(&a, PivotStrategy::Implicit).unwrap();
        let mut x_cpu = rhs.clone();
        cpu.solve_inplace(&mut x_cpu);
        for (p, q) in x_simt.iter().zip(&x_cpu) {
            assert!((p - q).abs() < 1e-11);
        }
        for (p, q) in x_simt.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-7);
        }
    });
}

#[test]
fn simt_gh_equals_cpu_both_storages() {
    run_cases("simt_gh_equals_cpu_both_storages", 48, |rng, _case| {
        let (n, seed) = dim_and_seed(rng);
        let a = block_from_seed(n, seed.wrapping_add(17));
        let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
        for storage in [GhStorage::RowMajor, GhStorage::Dual] {
            let mut dev = GhBatch::upload(&batch, storage);
            dev.run_all().unwrap();
            let cpu = vbatch_core::gh_factorize(&a, GhLayout::Transposed).unwrap();
            let gpu = dev.factors_host(0);
            assert_eq!(gpu.q.as_slice(), cpu.q.as_slice());
            for (x, y) in gpu.m.as_slice().iter().zip(cpu.m.as_slice()) {
                assert!((x - y).abs() < 1e-11);
            }
        }
    });
}

#[test]
fn simt_gh_solve_solves() {
    run_cases("simt_gh_solve_solves", 48, |rng, _case| {
        let (n, seed) = dim_and_seed(rng);
        let a = block_from_seed(n, seed.wrapping_add(99));
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 - (i % 5) as f64 / 2.0).collect();
        let rhs = a.matvec(&x_true);
        let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
        for storage in [GhStorage::RowMajor, GhStorage::Dual] {
            let mut fact = GhBatch::upload(&batch, storage);
            fact.run_all().unwrap();
            let mut solve = GhSolveBatch::from_factorization(&fact, &rhs);
            solve.run_all().unwrap();
            let x = solve.solution_host(0);
            for (p, q) in x.iter().zip(&x_true) {
                assert!((p - q).abs() < 1e-7, "{storage:?}");
            }
        }
    });
}

#[test]
fn vendor_pipeline_solves() {
    run_cases("vendor_pipeline_solves", 48, |rng, _case| {
        let (n, seed) = dim_and_seed(rng);
        let a = block_from_seed(n, seed.wrapping_add(7));
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let rhs = a.matvec(&x_true);
        let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
        let mut f = VendorLu::upload(&batch).unwrap();
        f.run_all().unwrap();
        // vendor factors equal CPU *explicit* LU
        let cpu = getrf(&a, PivotStrategy::Explicit).unwrap();
        let perm = f.perm_host(0);
        assert_eq!(perm.as_slice(), cpu.perm.as_slice());
        let mut s = VendorGetrs::from_factorization(&f, &rhs);
        s.run_all().unwrap();
        for (p, q) in s.solution_host(0).iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-7);
        }
    });
}

#[test]
fn costs_scale_with_multiplicity() {
    run_cases("costs_scale_with_multiplicity", 31, |rng, _case| {
        // estimating k identical warps must equal k * one warp
        let n = rng.gen_range(2usize..33);
        let c1 = vbatch_simt::kernels::getrf::warp_cost::<f64>(n);
        let batch_costs = vbatch_simt::kernels::getrf::batch_cost::<f64>(&[n; 7]);
        assert_eq!(batch_costs.len(), 1);
        assert_eq!(batch_costs[0].1, 7);
        assert_eq!(&batch_costs[0].0.instr, &c1.instr);
    });
}

#[test]
fn extraction_strategies_agree_on_random_csr() {
    run_cases(
        "extraction_strategies_agree_on_random_csr",
        48,
        |rng, _case| {
            use vbatch_simt::{ExtractBatch, ExtractStrategy};
            let n_blocks = rng.gen_range(1usize..5);
            let bs = rng.gen_range(1usize..9);
            let seed = rng.next_u64();
            // random sparse rows over the full width
            let n = n_blocks * bs;
            let mut rp = vec![0u32];
            let mut ci: Vec<u32> = Vec::new();
            let mut vals: Vec<f64> = Vec::new();
            let mut state = seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _r in 0..n {
                let cnt = next() % (n + 1);
                let mut cols: Vec<usize> = (0..cnt).map(|_| next() % n).collect();
                cols.sort_unstable();
                cols.dedup();
                for c in cols {
                    ci.push(c as u32);
                    vals.push((next() % 100) as f64 / 10.0 - 5.0);
                }
                rp.push(ci.len() as u32);
            }
            let block_ptr: Vec<usize> = (0..=n_blocks).map(|b| b * bs).collect();
            let mut dev = ExtractBatch::upload(&rp, &ci, &vals, &block_ptr);
            dev.run_all(ExtractStrategy::RowPerLane);
            let naive: Vec<Vec<f64>> = (0..n_blocks).map(|b| dev.block_host(b)).collect();
            dev.clear_output();
            dev.run_all(ExtractStrategy::SharedMem);
            for b in 0..n_blocks {
                assert_eq!(&dev.block_host(b), &naive[b]);
            }
        },
    );
}
