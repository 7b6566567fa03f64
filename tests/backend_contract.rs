//! Cross-backend, cross-layout contract: every host backend runs one
//! kernel set, and the interleaved layout is bitwise the blocked one —
//! including what a singular and a non-finite block leave behind, and
//! whether the factors were built in the batch's own value array or
//! gathered into a slab of their own.

use vbatch_core::BatchLayout;
use vbatch_exec::{BlockFactor, ClassLayout};
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
    for backend in [&CpuSequential as &dyn Backend<f64>, &CpuSimd] {
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

/// Everything a factorization leaves behind that a caller can see, per
/// block: pivots, status, the scalar-Jacobi fallback's reciprocal
/// diagonal, the prepared solve's bits — and whether the native class
/// slab is the input batch's own allocation.
#[derive(Debug, PartialEq)]
struct Outcome {
    pivots: Vec<Option<Vec<usize>>>,
    status: Vec<BlockStatus>,
    inv_diag: Vec<Option<Vec<u64>>>,
    solved: Vec<Vec<u64>>,
}

fn factor_and_solve(
    backend: &dyn Backend<f64>,
    batch: MatrixBatch<f64>,
    layout: BatchLayout,
    rhs: &[Vec<f64>],
) -> (Outcome, bool) {
    let sizes = batch.sizes().to_vec();
    let plan = BatchPlan::auto_with_layout::<f64>(&sizes, layout);
    let input = batch.as_slice().as_ptr();
    let mut stats = ExecStats::new();
    let factors = backend.factorize(batch, &plan, &mut stats);
    let shares_input = factors.interleaved.values().as_ptr() == input;
    let prepared = backend.prepare_apply(&factors);
    let mut v: Vec<f64> = rhs.concat();
    backend.solve_prepared(&factors, &prepared, &mut v, &mut stats);
    let mut solved = Vec::with_capacity(sizes.len());
    let mut at = 0;
    for &n in &sizes {
        solved.push(v[at..at + n].iter().map(|x| x.to_bits()).collect());
        at += n;
    }
    let inv_diag = factors
        .factors
        .iter()
        .map(|f| match f {
            BlockFactor::ScalarJacobi { inv_diag } => {
                Some(inv_diag.iter().map(|d| d.to_bits()).collect())
            }
            _ => None,
        })
        .collect();
    let outcome = Outcome {
        pivots: (0..sizes.len()).map(|b| factors.row_of_step(b)).collect(),
        status: factors.status.clone(),
        inv_diag,
        solved,
    };
    (outcome, shares_input)
}

#[test]
fn in_place_factors_equal_gathered_and_blocked_ones_bitwise() {
    // two populous classes stored one after the other, with counts no
    // lane width divides: every block is a member of an interleaved
    // chunk of consecutive indices, so the host backends factorize in
    // the batch's own value array
    let mut sizes = vec![8usize; 19];
    sizes.extend([32; 11]);
    let mut rng = SmallRng::seed_from_u64(19);
    let mut blocks = testgen::dd_batch_of(&mut rng, &sizes).blocks;
    // per class one singular member (two equal rows) and one with an
    // off-diagonal NaN: both fall back to the reciprocal of a diagonal
    // the in-place sweep has overwritten by the time the caller sees
    // the failure
    for (singular, nan) in [(5usize, 12usize), (21, 28)] {
        let n = sizes[singular];
        for c in 0..n {
            blocks[singular][c * n + 3] = blocks[singular][c * n + 1];
        }
        blocks[nan][n + 2] = f64::NAN;
    }
    let rhs: Vec<Vec<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(b, &n)| {
            (0..n)
                .map(|i| ((b + 3 * i) % 11) as f64 / 2.0 - 2.0)
                .collect()
        })
        .collect();
    // the same blocks dealt alternately from the two classes: no class
    // is stored consecutively any more
    let mut order: Vec<usize> = Vec::with_capacity(sizes.len());
    for i in 0..19 {
        order.push(i);
        if i < 11 {
            order.push(19 + i);
        }
    }
    let batch_of = |order: &[usize]| {
        let sizes: Vec<usize> = order.iter().map(|&b| sizes[b]).collect();
        let mut batch = MatrixBatch::<f64>::zeros(&sizes);
        for (p, &b) in order.iter().enumerate() {
            batch.block_mut(p).copy_from_slice(&blocks[b]);
        }
        let rhs: Vec<Vec<f64>> = order.iter().map(|&b| rhs[b].clone()).collect();
        (batch, rhs)
    };
    let stored: Vec<usize> = (0..sizes.len()).collect();
    let interleaved = BatchLayout::Interleaved { class_capacity: 2 };

    let (batch, b) = batch_of(&stored);
    let (reference, _) = factor_and_solve(&CpuSequential, batch, BatchLayout::Blocked, &b);
    let fallbacks: Vec<usize> = (0..sizes.len())
        .filter(|&b| reference.status[b].is_fallback())
        .collect();
    assert_eq!(fallbacks, [5, 12, 21, 28]);
    for b in fallbacks {
        let inv = reference.inv_diag[b]
            .as_ref()
            .expect("scalar-Jacobi fallback");
        let want: Vec<u64> = (0..sizes[b])
            .map(|i| (1.0 / blocks[b][i * sizes[b] + i]).to_bits())
            .collect();
        assert_eq!(inv, &want, "block {b}: reciprocal of the original diagonal");
    }

    for backend in [&CpuSequential as &dyn Backend<f64>, &CpuSimd] {
        let ctx = backend.name();
        let (batch, b) = batch_of(&stored);
        let (blocked, shares) = factor_and_solve(backend, batch, BatchLayout::Blocked, &b);
        assert_eq!(blocked, reference, "blocked, {ctx}");
        assert!(!shares, "blocked factors have no class slab, {ctx}");

        let (batch, b) = batch_of(&stored);
        let (in_place, shares) = factor_and_solve(backend, batch, interleaved, &b);
        assert_eq!(in_place, reference, "stored by class, {ctx}");
        assert!(shares, "consecutive classes factorize in place, {ctx}");

        let (batch, b) = batch_of(&order);
        let (gathered, shares) = factor_and_solve(backend, batch, interleaved, &b);
        let unpermuted = Outcome {
            pivots: unpermute(&order, gathered.pivots),
            status: unpermute(&order, gathered.status),
            inv_diag: unpermute(&order, gathered.inv_diag),
            solved: unpermute(&order, gathered.solved),
        };
        assert_eq!(unpermuted, reference, "dealt alternately, {ctx}");
        // a chunk of one member is trivially consecutive, and a parallel
        // backend on enough cores cuts nothing longer: only the
        // sequential backend's chunking is the same on every host
        if ctx == "cpu-seq" {
            assert!(!shares, "scattered classes gather into a fresh slab");
        }
    }
}

#[test]
fn a_lane_group_that_leaves_the_wide_sweep_finishes_like_the_per_block_kernel() {
    // one populous class, a count no lane width divides (four groups of
    // eight and three slots at W = 1), every block dominant — the lane
    // GETRF stays wide on all of it — except:
    let (n, count) = (12usize, 35usize);
    let sizes = vec![n; count];
    let mut rng = SmallRng::seed_from_u64(23);
    let mut blocks = testgen::dd_batch_of(&mut rng, &sizes).blocks;
    // blocks 3 (in a group) and 33 (remainder) have a tiny diagonal
    // from column 5 on, so their groups leave at step 5 and every mate
    // resumes there in the per-block kernel
    for b in [3usize, 33] {
        for j in 5..n {
            blocks[b][j * n + j] = 1.0 / 64.0;
        }
    }
    // block 13 has a zero column: its group is wide until step 7, where
    // it dies; block 22 holds a NaN, so its group never starts
    blocks[13][7 * n..8 * n].fill(0.0);
    blocks[22][4 * n + 9] = f64::NAN;
    let mut batch = MatrixBatch::<f64>::zeros(&sizes);
    for (b, block) in blocks.iter().enumerate() {
        batch.block_mut(b).copy_from_slice(block);
    }
    let rhs: Vec<Vec<f64>> = (0..count)
        .map(|b| {
            (0..n)
                .map(|i| ((b + 5 * i) % 13) as f64 / 2.0 - 3.0)
                .collect()
        })
        .collect();

    let (reference, _) =
        factor_and_solve(&CpuSequential, batch.clone(), BatchLayout::Blocked, &rhs);
    let fallbacks: Vec<usize> = (0..count)
        .filter(|&b| reference.status[b].is_fallback())
        .collect();
    assert_eq!(fallbacks, [13, 22]);
    for b in [3usize, 33] {
        let pivots = reference.pivots[b].as_ref().expect("an LU block");
        assert_eq!(
            pivots[..5],
            [0, 1, 2, 3, 4],
            "block {b} starts on the diagonal"
        );
        assert_ne!(pivots[5], 5, "block {b} leaves it at step 5");
    }
    let interleaved = BatchLayout::Interleaved { class_capacity: 2 };
    for backend in [&CpuSequential as &dyn Backend<f64>, &CpuSimd] {
        for layout in [BatchLayout::Blocked, interleaved] {
            let (outcome, _) = factor_and_solve(backend, batch.clone(), layout, &rhs);
            assert_eq!(outcome, reference, "{} / {layout:?}", backend.name());
        }
    }

    // what the two dead slots leave in the slab: identity factors and an
    // identity pivot lane, so a class-wide sweep over them stays finite
    let plan = BatchPlan::auto_with_layout::<f64>(&sizes, interleaved);
    let factors = CpuSequential.factorize(batch, &plan, &mut ExecStats::new());
    let slab = &factors.interleaved;
    let mut dead = Vec::new();
    for (c, class) in slab.classes().iter().enumerate() {
        let at = |e: usize, slot: usize| e * class.count() + slot;
        for (slot, &b) in class.blocks.iter().enumerate() {
            if fallbacks.contains(&b) {
                dead.push(b);
                for e in 0..n * n {
                    let want = if e % (n + 1) == 0 { 1.0 } else { 0.0 };
                    assert_eq!(slab.data(c)[at(e, slot)], want, "block {b} element {e}");
                }
                for k in 0..n {
                    assert_eq!(slab.piv(c)[at(k, slot)], k, "block {b} pivot {k}");
                }
            }
        }
    }
    dead.sort_unstable();
    assert_eq!(
        dead, fallbacks,
        "both dead blocks are slots of an interleaved class"
    );
}

/// `out[order[p]] = permuted[p]`.
fn unpermute<X>(order: &[usize], permuted: Vec<X>) -> Vec<X> {
    let mut slots: Vec<Option<X>> = permuted.iter().map(|_| None).collect();
    for (&b, x) in order.iter().zip(permuted) {
        slots[b] = Some(x);
    }
    slots
        .into_iter()
        .map(|x| x.expect("`order` is a permutation"))
        .collect()
}
