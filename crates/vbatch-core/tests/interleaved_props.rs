//! Property tests of the interleaved (structure-of-arrays) layout:
//! `InterleavedClass::pack_from` round-trip and slot order, and bitwise
//! agreement of the class kernels with the per-block reference kernels.

mod common;

use common::{assert_class_matches_per_block, late_leaving_blocks, WIDE_ORDERS};
use vbatch_core::{InterleavedClass, MatrixBatch, Scalar, SUPPORTED_WIDTHS};
use vbatch_rt::testgen::{self, RawBatch};
use vbatch_rt::{run_cases, SmallRng};

fn to_matrix_batch(raw: &RawBatch) -> MatrixBatch<f64> {
    let mut batch = MatrixBatch::zeros(&raw.sizes);
    for i in 0..raw.len() {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    batch
}

#[test]
fn pack_from_round_trips_and_keeps_slot_order() {
    run_cases("interleaved_pack_from_roundtrip", 48, |rng, _case| {
        let batch = to_matrix_batch(&testgen::dd_batch(rng, 9, 40));
        // one class per distinct order, members in a rotated batch order
        // so slot order is the caller's, not the batch's
        let mut orders = batch.sizes().to_vec();
        orders.sort_unstable();
        orders.dedup();
        let mut seen = vec![false; batch.len()];
        for n in orders {
            let mut members: Vec<usize> =
                (0..batch.len()).filter(|&b| batch.size(b) == n).collect();
            let by = rng.gen_range(0usize..members.len());
            members.rotate_left(by);
            let class = InterleavedClass::<f64>::pack_from(&batch, &members);
            assert_eq!((class.n(), class.count()), (n, members.len()));
            assert_eq!(class.blocks(), &members[..]);
            let mut back = vec![0.0; n * n];
            for (slot, &blk) in members.iter().enumerate() {
                assert!(!seen[blk], "block {blk} packed twice");
                seen[blk] = true;
                // bitwise identity: packing must not touch the values
                class.unpack_slot(slot, &mut back);
                assert_eq!(back, batch.block(blk));
                for j in 0..n {
                    for i in 0..n {
                        assert_eq!(class.get(slot, i, j), batch.block(blk)[j * n + i]);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "classes must cover every block");
    });
}

/// A ragged class: diagonally dominant blocks (every pivot on the
/// diagonal), plain random ones (each slot its own pivot order), and —
/// one case in three — an exactly singular and a non-finite block.
fn ragged_class<T: Scalar>(rng: &mut SmallRng, n: usize, count: usize) -> Vec<Vec<T>> {
    let faulty = rng.gen_range(0usize..3) == 0;
    let mut blocks: Vec<Vec<f64>> = (0..count)
        .map(|s| match s % 2 {
            0 => testgen::dd_dense(rng, n),
            _ => (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        })
        .collect();
    if faulty {
        blocks[count / 2] = testgen::singular_dense(rng, n);
        blocks[count - 1][0] = f64::INFINITY;
    }
    blocks
        .into_iter()
        .map(|b| b.into_iter().map(T::from_f64).collect())
        .collect()
}

fn class_sweeps_match_per_block_kernels<T: Scalar>(rng: &mut SmallRng, n: usize) {
    let count = rng.gen_range(1usize..24);
    let blocks = ragged_class::<T>(rng, n, count);
    let x0: Vec<T> = (0..n * count)
        .map(|_| T::from_f64(rng.gen_range(-3.0..3.0)))
        .collect();
    let late = late_leaving_blocks::<T>(rng, n, count);
    for width in SUPPORTED_WIDTHS {
        assert_class_matches_per_block(width, n, &blocks, &x0);
        assert_class_matches_per_block(width, n, &late, &x0);
    }
}

#[test]
fn class_sweeps_match_per_block_kernels_bitwise() {
    run_cases("interleaved_sweeps_match_blocked", 32, |rng, case| {
        // one case in eight above the warp width
        let orders = if case % 8 == 7 { WIDE_ORDERS } else { 1..9 };
        let (n64, n32) = (rng.gen_range(orders.clone()), rng.gen_range(orders));
        class_sweeps_match_per_block_kernels::<f64>(rng, n64);
        class_sweeps_match_per_block_kernels::<f32>(rng, n32);
    });
}
