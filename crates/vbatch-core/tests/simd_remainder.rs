//! Remainder-handling property suite for the interleaved class
//! kernels: class populations that are **not** multiples of the lane
//! width must produce the same bits as full lane groups — the trailing
//! slots go down the W = 1 remainder path, and per slot that path
//! executes the same operation sequence.
//!
//! For every width in `SUPPORTED_WIDTHS`, both precisions, and
//! randomized testgen batches, the counts exercised are the boundary
//! set {1, W−1, W+1, 2W−1} plus a random count — each compared
//! slot-by-slot against (a) the masked per-block kernel and the
//! per-block solve on the same block
//! (`common::assert_class_matches_per_block`) and (b) the same slots
//! factorized inside a *larger* class, proving chunk boundaries are
//! invisible. The orders past the warp width (33..=64, one of 96 and
//! 128), which the lane kernels take in production, get (a) with one
//! faulty slot per class. (a) also runs on
//! `common::late_leaving_blocks`, whose lane groups leave the wide
//! sweep mid-sweep.

mod common;

use common::{assert_class_matches_per_block, late_leaving_blocks, pack, run_class, WIDE_ORDERS};
use vbatch_core::{Scalar, SUPPORTED_WIDTHS};
use vbatch_rt::{run_cases, testgen, SmallRng};

/// `count` healthy f64 blocks of order `n`: diagonally dominant ones
/// (every pivot on the diagonal) and, one in three, plain random ones
/// (each slot its own pivot order).
fn healthy_blocks(rng: &mut SmallRng, n: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| match s % 3 {
            0 => (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            _ => testgen::dd_dense(rng, n),
        })
        .collect()
}

fn cast<T: Scalar>(blocks: Vec<Vec<f64>>) -> Vec<Vec<T>> {
    let cast_block = |b: Vec<f64>| b.into_iter().map(T::from_f64).collect();
    blocks.into_iter().map(cast_block).collect()
}

/// [`healthy_blocks`] with — one case in four — an exactly singular and
/// a NaN block.
fn gen_blocks<T: Scalar>(rng: &mut SmallRng, n: usize, count: usize) -> Vec<Vec<T>> {
    let mut blocks = healthy_blocks(rng, n, count);
    if rng.gen_range(0usize..4) == 0 {
        blocks[count / 2] = testgen::singular_dense(rng, n);
        blocks[count - 1][n * n - 1] = f64::NAN;
    }
    cast(blocks)
}

fn rhs<T: Scalar>(rng: &mut SmallRng, len: usize) -> Vec<T> {
    (0..len)
        .map(|_| T::from_f64(rng.gen_range(-4.0..4.0)))
        .collect()
}

fn non_multiple_counts_match_per_block_kernels<T: Scalar>(rng: &mut SmallRng) {
    for width in SUPPORTED_WIDTHS {
        let n = rng.gen_range(1usize..13);
        for count in [
            1,
            width - 1,
            width + 1,
            2 * width - 1,
            rng.gen_range(1usize..40),
        ] {
            let blocks = gen_blocks::<T>(rng, n, count.max(1));
            let x0 = rhs(rng, n * blocks.len());
            assert_class_matches_per_block(width, n, &blocks, &x0);
            let late = late_leaving_blocks::<T>(rng, n, count.max(1));
            assert_class_matches_per_block(width, n, &late, &x0);
        }
    }
}

#[test]
fn non_multiple_counts_match_per_block_kernels_bitwise_f64() {
    run_cases("simd_remainder_f64", 12, |rng, _case| {
        non_multiple_counts_match_per_block_kernels::<f64>(rng)
    });
}

#[test]
fn non_multiple_counts_match_per_block_kernels_bitwise_f32() {
    run_cases("simd_remainder_f32", 8, |rng, _case| {
        non_multiple_counts_match_per_block_kernels::<f32>(rng)
    });
}

/// Hold one class of order `n` against the per-block oracle at every
/// supported width (W = 1 is the remainder path alone). The 11 slots are
/// a count no wider width divides (8 + 3, 2·4 + 3, 5·2 + 1), and exactly
/// one of them, anywhere in a lane group or the remainder, is faulty —
/// singular for even `n`, non-finite for odd. Then the same for a class
/// whose groups leave the wide sweep mid-sweep, one slot dying there.
fn one_fault_class_matches_per_block<T: Scalar>(rng: &mut SmallRng, n: usize) {
    let count = 11;
    let mut blocks = healthy_blocks(rng, n, count);
    let bad = rng.gen_range(0usize..count);
    if n % 2 == 0 {
        blocks[bad] = testgen::singular_dense(rng, n);
    } else {
        blocks[bad][rng.gen_range(0usize..n * n)] = f64::NAN;
    }
    let blocks = cast::<T>(blocks);
    let x0 = rhs(rng, n * count);
    for width in SUPPORTED_WIDTHS {
        let errs = assert_class_matches_per_block(width, n, &blocks, &x0);
        let failed: Vec<usize> = (0..count).filter(|&s| errs[s].is_some()).collect();
        assert_eq!(failed, [bad], "n={n} w={width}");
    }
    let late = late_leaving_blocks::<T>(rng, n, count);
    for width in SUPPORTED_WIDTHS {
        let errs = assert_class_matches_per_block(width, n, &late, &x0);
        let failed: Vec<usize> = (0..count).filter(|&s| errs[s].is_some()).collect();
        assert_eq!(failed, [count / 2], "late-leaving class, n={n} w={width}");
    }
}

#[test]
fn orders_above_the_warp_width_match_per_block_kernels_bitwise() {
    run_cases("simd_remainder_wide_orders", 4, |rng, _case| {
        let (n64, n32) = (rng.gen_range(WIDE_ORDERS), rng.gen_range(WIDE_ORDERS));
        one_fault_class_matches_per_block::<f64>(rng, n64);
        one_fault_class_matches_per_block::<f32>(rng, n32);
    });
    run_cases("simd_remainder_largest_orders", 1, |rng, _case| {
        one_fault_class_matches_per_block::<f64>(rng, 96);
        one_fault_class_matches_per_block::<f32>(rng, 128);
    });
}

/// The trailing remainder slots of a class must carry the same bits as
/// the same blocks factorized in a class where they fill complete lane
/// groups — i.e. the full-width and remainder paths are the same
/// function of a slot's data.
#[test]
fn remainder_slots_are_identical_to_the_full_width_path() {
    run_cases("simd_remainder_vs_full_width", 10, |rng, _case| {
        for width in [2usize, 4, 8] {
            let n = rng.gen_range(2usize..10);
            // 2W+r slots: the final r ride the remainder path
            let r = rng.gen_range(1usize..width.max(2));
            let count = 2 * width + r;
            let blocks = gen_blocks::<f64>(rng, n, count);
            let x0: Vec<f64> = rhs(rng, n * count);

            let data = pack(&blocks, n);
            let (d, piv, errs, x) = run_class(width, n, count, &data, &x0);

            // same blocks, padded with clones of themselves so every
            // original slot sits inside a full lane group
            let mut padded = blocks.clone();
            while padded.len() % width != 0 {
                padded.push(blocks[padded.len() % blocks.len()].clone());
            }
            let pcount = padded.len();
            let pdata = pack(&padded, n);
            let mut px0 = vec![0.0; n * pcount];
            for s in 0..count {
                for i in 0..n {
                    px0[i * pcount + s] = x0[i * count + s];
                }
            }
            let (pd, ppiv, perrs, px) = run_class(width, n, pcount, &pdata, &px0);
            assert_eq!(errs[..], perrs[..count]);

            for s in 0..count {
                for e in 0..n * n {
                    assert_eq!(
                        d[e * count + s].to_bits(),
                        pd[e * pcount + s].to_bits(),
                        "slot {s} elem {e} n={n} w={width}"
                    );
                }
                for k in 0..n {
                    assert_eq!(piv[k * count + s], ppiv[k * pcount + s]);
                }
                for i in 0..n {
                    assert_eq!(
                        x[i * count + s].to_bits(),
                        px[i * pcount + s].to_bits(),
                        "slot {s} row {i} n={n} w={width}"
                    );
                }
            }
        }
    });
}
