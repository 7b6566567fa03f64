//! The per-block oracle of the interleaved class kernels — the masked
//! implicit-pivot formulation, which neither in-order sweep shares —
//! shared by the suites that drive them.

use vbatch_core::lu::implicit::getrf_implicit_resume_scratch;
use vbatch_core::{
    check_finite, getrf_interleaved_class_simd_width,
    lu_solve_interleaved_class_scratch_simd_width, FactorError, LuView, Scalar,
};
use vbatch_rt::{testgen, SmallRng};

/// Orders past the warp width. The planner interleaves every populous
/// LU class, so the lane kernels meet these in production; a draw from
/// this range rides beside each suite's small orders.
pub const WIDE_ORDERS: std::ops::Range<usize> = 33..65;

/// `count` blocks of order `n` whose lane group leaves the class
/// kernel's wide sweep *mid-sweep*: slot `s` is a `dd_dense` block
/// that keeps its dominant diagonal in the first `lead` columns only,
/// `lead` in `1..n` and one more than its left neighbour's. Those
/// columns stay dominant under elimination, so the slot elects the
/// diagonal for `lead` steps and is plain random after — a group leaves
/// at the smallest `lead` among its lanes and every lane resumes ahead
/// of where it would have left alone. Slot `count / 2` also has a zero
/// column past the first, so it dies at a step > 0 (inside the wide
/// sweep if its own `lead` reaches that far). Order 1 has no such
/// step: its blocks are plain dominant.
pub fn late_leaving_blocks<T: Scalar>(rng: &mut SmallRng, n: usize, count: usize) -> Vec<Vec<T>> {
    let first = rng.gen_range(0usize..n);
    let mut blocks: Vec<Vec<f64>> = (0..count)
        .map(|s| {
            let mut b = testgen::dd_dense(rng, n);
            let lead = 1 + (first + s) % (n - 1).max(1);
            for j in lead..n {
                b[j * n + j] = rng.gen_range(-1.0..1.0);
            }
            b
        })
        .collect();
    if n > 1 {
        let dead = rng.gen_range(1usize..n);
        blocks[count / 2][dead * n..(dead + 1) * n].fill(0.0);
    }
    blocks
        .into_iter()
        .map(|b| b.into_iter().map(T::from_f64).collect())
        .collect()
}

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

/// The masked per-block formulation from step 0 behind the finite
/// pre-scan (`check_finite` + `getrf_implicit_resume_scratch(n, a, 0,
/// ..)`): the oracle, independent of the in-order sweeps that both the
/// lane kernel and `getrf_implicit_inplace` run while the diagonal
/// wins. Returns the row-of-step pivot sequence, or the error.
pub fn masked_getrf<T: Scalar>(n: usize, blk: &mut [T]) -> Result<Vec<usize>, FactorError> {
    let (mut steps, mut col) = (vec![0usize; n], vec![T::ZERO; n]);
    check_finite(n, blk)?;
    getrf_implicit_resume_scratch(n, blk, 0, &mut steps, &mut col)?;
    let mut rows = vec![0usize; n];
    for (r, &k) in steps.iter().enumerate() {
        rows[k] = r;
    }
    Ok(rows)
}

/// Run the class kernels at `width` over `blocks` (one slot each, RHS
/// lanes `x0[i * count + slot]`) and hold every slot against
/// [`masked_getrf`] + the eager `LuView::solve_inplace` on the
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
        match masked_getrf(n, &mut blk) {
            Ok(rows) => {
                assert_eq!(errs[s], None, "slot {s} {ctx}");
                assert_eq!(lane, rows, "slot {s} pivots {ctx}");
                LuView::new(&blk, &rows).solve_inplace(&mut want_x, &mut scratch);
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
