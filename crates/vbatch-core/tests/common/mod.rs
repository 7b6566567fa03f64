//! The per-block oracle of the interleaved class kernels, shared by the
//! suites that drive them.

use vbatch_core::lu::implicit::getrf_implicit_inplace;
use vbatch_core::{
    getrf_interleaved_class_simd_width, lu_solve_inplace_scratch,
    lu_solve_interleaved_class_scratch_simd_width, FactorError, Scalar, TrsvVariant,
};

/// Orders past the warp width. The planner interleaves every populous
/// LU class, so the lane kernels meet these in production; a draw from
/// this range rides beside each suite's small orders.
pub const WIDE_ORDERS: std::ops::Range<usize> = 33..65;

/// Pack dense n×n blocks (column-major) into interleaved lanes.
pub fn pack<T: Scalar>(blocks: &[Vec<T>], n: usize) -> Vec<T> {
    let count = blocks.len();
    let mut data = vec![T::ZERO; n * n * count];
    for (s, b) in blocks.iter().enumerate() {
        for e in 0..n * n {
            data[e * count + s] = b[e];
        }
    }
    data
}

/// Factor + solve one class at `width`: (factors, pivots, errors, x).
pub fn run_class<T: Scalar>(
    width: usize,
    n: usize,
    count: usize,
    data: &[T],
    x0: &[T],
) -> (Vec<T>, Vec<usize>, Vec<Option<FactorError>>, Vec<T>) {
    let mut d = data.to_vec();
    let mut piv = vec![0usize; n * count];
    let errs = getrf_interleaved_class_simd_width(width, n, count, &mut d, &mut piv);
    let mut x = x0.to_vec();
    let mut scratch = vec![T::ZERO; n * count];
    lu_solve_interleaved_class_scratch_simd_width(width, n, count, &d, &piv, &mut x, &mut scratch);
    (d, piv, errs, x)
}

/// Run the class kernels at `width` over `blocks` (one slot each, RHS
/// lanes `x0[i * count + slot]`) and hold every slot against
/// `getrf_implicit_inplace` + `lu_solve_inplace_scratch(Eager)` on the
/// same block: factors, pivot sequence and solution bitwise where the
/// block factorizes; the same `FactorError`, identity factors, an
/// identity pivot lane and an untouched right-hand side where it does
/// not. Returns the error map.
pub fn assert_class_matches_per_block<T: Scalar>(
    width: usize,
    n: usize,
    blocks: &[Vec<T>],
    x0: &[T],
) -> Vec<Option<FactorError>> {
    let count = blocks.len();
    let ctx = format!("n={n} count={count} w={width}");
    let (d, piv, errs, x) = run_class(width, n, count, &pack(blocks, n), x0);
    let bits = |v: T| v.to_f64().to_bits();
    let mut scratch = vec![T::ZERO; n];
    for (s, block) in blocks.iter().enumerate() {
        let lane: Vec<usize> = (0..n).map(|k| piv[k * count + s]).collect();
        let mut blk = block.clone();
        let mut want_x: Vec<T> = (0..n).map(|i| x0[i * count + s]).collect();
        match getrf_implicit_inplace(n, &mut blk) {
            Ok(perm) => {
                assert_eq!(errs[s], None, "slot {s} {ctx}");
                assert_eq!(lane, perm.as_slice(), "slot {s} pivots {ctx}");
                lu_solve_inplace_scratch(
                    TrsvVariant::Eager,
                    n,
                    &blk,
                    perm.as_slice(),
                    &mut want_x,
                    &mut scratch,
                );
            }
            Err(e) => {
                assert_eq!(errs[s], Some(e), "slot {s} {ctx}");
                assert_eq!(lane, (0..n).collect::<Vec<_>>(), "slot {s} {ctx}");
                for (e, v) in blk.iter_mut().enumerate() {
                    *v = if e % (n + 1) == 0 { T::ONE } else { T::ZERO };
                }
            }
        }
        for (e, want) in blk.into_iter().enumerate() {
            let got = d[e * count + s];
            assert_eq!(bits(got), bits(want), "slot {s} factor elem {e} {ctx}");
        }
        for (i, want) in want_x.into_iter().enumerate() {
            let got = x[i * count + s];
            assert_eq!(bits(got), bits(want), "slot {s} solve row {i} {ctx}");
        }
    }
    errs
}
