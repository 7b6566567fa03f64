//! Cross-backend, cross-layout contract: every host backend runs one
//! kernel set, and the interleaved layout is bitwise the blocked one —
//! including what a singular and a non-finite block leave behind.

use vbatch_core::BatchLayout;
use vbatch_exec::ClassLayout;
use vbatch_lu::prelude::*;
use vbatch_rt::{testgen, SmallRng};

#[test]
fn host_backends_and_layouts_agree_bitwise_with_faulty_blocks() {
    // two populous packed-LU classes, a small-LU class, two populous
    // classes past the warp width, and a ragged tail (Gauss-Huard,
    // blocked LU, a lone order-3 block)
    let mut sizes = vec![4usize; 5];
    sizes.extend([7; 6]);
    sizes.extend([24; 3]);
    sizes.extend([40; 4]);
    sizes.extend([48; 3]);
    sizes.extend([20, 33, 3]);
    let mut rng = SmallRng::seed_from_u64(15);
    let raw = testgen::dd_batch_of(&mut rng, &sizes);
    let mut batch = MatrixBatch::<f64>::zeros(&sizes);
    for i in 0..batch.len() {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    // blocks 7 (order 7), 15 (order 40) and 20 (order 48): two equal
    // rows; block 2 (order 4): a NaN
    let singular = [7usize, 15, 20];
    for b in singular {
        let n = sizes[b];
        let blk = batch.block_mut(b);
        for c in 0..n {
            blk[c * n + 3] = blk[c * n + 1];
        }
    }
    batch.block_mut(2)[4 + 2] = f64::NAN;
    let total: usize = sizes.iter().sum();
    let flat: Vec<f64> = (0..total).map(|i| (i % 11) as f64 / 2.0 - 2.0).collect();

    let run = |backend: &dyn Backend<f64>, layout: BatchLayout| {
        let plan = BatchPlan::auto_with_layout::<f64>(&sizes, layout);
        let interleaved: usize = plan
            .layout_histogram()
            .iter()
            .filter(|(l, _)| *l != ClassLayout::Blocked)
            .map(|(_, c)| c)
            .sum();
        assert_eq!(
            interleaved,
            if layout == BatchLayout::Blocked {
                0
            } else {
                21
            }
        );
        let mut stats = ExecStats::new();
        let factors = backend.factorize(batch.clone(), &plan, &mut stats);
        let pivots: Vec<_> = (0..sizes.len()).map(|b| factors.row_of_step(b)).collect();
        let prepared = backend.prepare_apply(&factors);
        let mut v = flat.clone();
        backend.solve_prepared(&factors, &prepared, &mut v, &mut stats);
        let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        (pivots, factors.status.clone(), bits)
    };

    let (ref_pivots, ref_status, ref_bits) = run(&CpuSequential, BatchLayout::Blocked);
    let fallbacks: Vec<usize> = (0..sizes.len())
        .filter(|&b| ref_status[b].is_fallback())
        .collect();
    assert_eq!(fallbacks, [2, 7, 15, 20]);
    assert!(ref_bits.iter().all(|&b| f64::from_bits(b).is_finite()));
    for backend in [&CpuSequential as &dyn Backend<f64>, &CpuRayon, &CpuSimd] {
        for layout in [
            BatchLayout::Blocked,
            BatchLayout::Interleaved { class_capacity: 2 },
        ] {
            let ctx = format!("{} / {layout:?}", backend.name());
            let (pivots, status, bits) = run(backend, layout);
            assert_eq!(pivots, ref_pivots, "pivots, {ctx}");
            assert_eq!(status, ref_status, "statuses, {ctx}");
            assert_eq!(bits, ref_bits, "solve_prepared bits, {ctx}");
        }
    }
}
