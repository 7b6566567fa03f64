//! Property-based tests for the dense kernel layer: factorization
//! identities, solver agreement across algorithms, permutation algebra
//! and batch container invariants, over randomly generated inputs
//! (seeded, reproducible cases via `vbatch_rt::run_cases`).

use vbatch_core::{
    getrf, gh_factorize, gje_invert, make_spd, potrf, trsv_lower_unit, trsv_upper, DenseMat,
    GhLayout, MatrixBatch, Permutation, PivotStrategy, Scalar,
};
use vbatch_rt::{run_cases, testgen, SmallRng};

/// A well-conditioned random square matrix
/// ([`testgen::well_conditioned_dense`] wrapped into a `DenseMat`).
fn well_conditioned(n: usize, rng: &mut SmallRng) -> DenseMat<f64> {
    DenseMat::from_col_major(n, n, &testgen::well_conditioned_dense(rng, n))
}

/// An arbitrary small dimension.
fn dim(rng: &mut SmallRng) -> usize {
    rng.gen_range(1usize..25)
}

#[test]
fn lu_reconstructs_pa() {
    run_cases("lu_reconstructs_pa", 64, |rng, _case| {
        let n = dim(rng);
        let seed = rng.next_u64();
        let a = DenseMat::from_col_major(n, n, &testgen::hashed_dense(n, seed));
        for strat in [PivotStrategy::Explicit, PivotStrategy::Implicit] {
            let f = getrf(&a, strat).unwrap();
            assert!(f.residual(&a).to_f64() < 1e-10 * (n as f64 + 1.0));
        }
    });
}

#[test]
fn implicit_and_explicit_agree() {
    run_cases("implicit_and_explicit_agree", 64, |rng, _case| {
        let n = dim(rng);
        let a = well_conditioned(n, rng);
        let fi = getrf(&a, PivotStrategy::Implicit).unwrap();
        let fe = getrf(&a, PivotStrategy::Explicit).unwrap();
        // ties in pivot selection can reorder, so compare behaviour:
        // both must solve the same system to the same answer
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let xi = fi.solve(&b);
        let xe = fe.solve(&b);
        for (p, q) in xi.iter().zip(&xe) {
            assert!((p - q).abs() < 1e-8, "{p} vs {q}");
        }
    });
}

#[test]
fn gh_solves_like_lu() {
    run_cases("gh_solves_like_lu", 64, |rng, _case| {
        let n = dim(rng);
        let a = well_conditioned(n, rng);
        let b: Vec<f64> = (0..n).map(|i| 1.0 - (i % 3) as f64).collect();
        let lu = getrf(&a, PivotStrategy::Implicit).unwrap();
        let x_lu = lu.solve(&b);
        for layout in [GhLayout::Normal, GhLayout::Transposed] {
            let gh = gh_factorize(&a, layout).unwrap();
            let x_gh = gh.solve(&b);
            for (p, q) in x_lu.iter().zip(&x_gh) {
                assert!((p - q).abs() < 1e-8);
            }
        }
    });
}

#[test]
fn gje_inverse_is_two_sided() {
    run_cases("gje_inverse_is_two_sided", 64, |rng, _case| {
        let n = dim(rng);
        let a = well_conditioned(n, rng);
        let inv = gje_invert(&a).unwrap();
        let id = DenseMat::identity(n);
        assert!(a.matmul(&inv).sub(&id).norm_max() < 1e-9);
        assert!(inv.matmul(&a).sub(&id).norm_max() < 1e-9);
    });
}

#[test]
fn cholesky_solves_spd() {
    run_cases("cholesky_solves_spd", 64, |rng, _case| {
        let n = rng.gen_range(1usize..17);
        let a = well_conditioned(n, rng);
        let spd = make_spd(&a);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 - 2.0) / 3.0).collect();
        let b = spd.matvec(&x_true);
        let f = potrf(&spd).unwrap();
        let x = f.solve(&b);
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-7);
        }
        assert!(f.residual(&spd).to_f64() < 1e-8 * (n as f64 + 1.0));
    });
}

#[test]
fn lower_then_upper_inverts_matvec() {
    run_cases("lower_then_upper_inverts_matvec", 64, |rng, _case| {
        // y = L (U x) then the two sweeps must return x
        let n = dim(rng);
        let a = well_conditioned(n, rng);
        let f = getrf(&a, PivotStrategy::Implicit).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let ux = f.lu.upper().matvec(&x);
        let mut y = f.lu.unit_lower().matvec(&ux);
        trsv_lower_unit(n, f.lu.as_slice(), &mut y);
        trsv_upper(n, f.lu.as_slice(), &mut y);
        for (p, q) in y.iter().zip(&x) {
            assert!((p - q).abs() < 1e-7);
        }
    });
}

#[test]
fn permutation_roundtrip() {
    run_cases("permutation_roundtrip", 64, |rng, _case| {
        // build a permutation by sorting indices of random keys
        let n = rng.gen_range(1usize..40);
        let keys: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..100)).collect();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (keys[i], i));
        let p = Permutation::from_row_of_step(idx);
        let v: Vec<i64> = (0..n as i64).collect();
        let w = p.apply(&v);
        let back = p.apply_inverse(&w);
        assert_eq!(back, v);
        let inv = p.inverse();
        let double_inv = inv.inverse();
        assert_eq!(double_inv.as_slice(), p.as_slice());
        assert_eq!(p.is_odd(), inv.is_odd());
    });
}

#[test]
fn batch_container_roundtrip() {
    run_cases("batch_container_roundtrip", 64, |rng, _case| {
        let count = rng.gen_range(0usize..16);
        let sizes: Vec<usize> = (0..count).map(|_| rng.gen_range(1usize..11)).collect();
        let batch = MatrixBatch::<f64>::zeros(&sizes);
        assert_eq!(batch.len(), sizes.len());
        let total: usize = sizes.iter().map(|&n| n * n).sum();
        assert_eq!(batch.total_elements(), total);
        for (i, &n) in sizes.iter().enumerate() {
            assert_eq!(batch.size(i), n);
            assert_eq!(batch.block(i).len(), n * n);
        }
        // offsets are a prefix sum
        for i in 0..sizes.len() {
            assert_eq!(
                batch.offsets()[i + 1] - batch.offsets()[i],
                sizes[i] * sizes[i]
            );
        }
    });
}

#[test]
fn determinant_multiplies_for_diagonal_scaling() {
    run_cases(
        "determinant_multiplies_for_diagonal_scaling",
        64,
        |rng, _case| {
            let n = rng.gen_range(2usize..11);
            let a = well_conditioned(n, rng);
            let alpha = rng.gen_range(0.5f64..2.0);
            let f = getrf(&a, PivotStrategy::Implicit).unwrap();
            // scale the first row by alpha => det scales by alpha
            let mut b = a.clone();
            for j in 0..n {
                let v = b[(0, j)];
                b[(0, j)] = v * alpha;
            }
            let fb = getrf(&b, PivotStrategy::Implicit).unwrap();
            let ratio = fb.det() / f.det();
            assert!(
                (ratio - alpha).abs() < 1e-6 * alpha.max(1.0),
                "ratio {ratio} vs {alpha}"
            );
        },
    );
}
