//! The explicit-wide-lane host backend.
//!
//! [`CpuSimd`] maps one interleaved *slot per vector lane* — the CPU
//! realization of the paper's one-matrix-per-SIMT-lane mapping — and
//! routes every class the plan marked [`crate::ClassLayout::Interleaved`]
//! through the lane-wide GETRF/TRSV kernels of
//! `vbatch_core::interleaved_simd`:
//!
//! ```text
//! interleaved class (n=16, count=20k)      lane group (W = 8, AVX-512 DP)
//! slot:   0  1  2  3  4  5  6  7 | 8 ...   one vector register holds
//! a(0,0) [.  .  .  .  .  .  .  .]| .       a(i,j) of 8 matrices; the
//! a(1,0) [.  .  .  .  .  .  .  .]| .       whole elimination for the
//!  ...                           |         group runs before the next
//! a(n,n) [.  .  .  .  .  .  .  .]| .       group starts (L1-resident)
//! ```
//!
//! Blocked-layout blocks and ragged classes the planner kept out of the
//! interleaved layout are delegated to the same scoped-thread parallel
//! driver `CpuRayon` uses, so `CpuSimd` is a strict superset: never
//! slower on the parts the lane kernels don't cover, and bitwise
//! identical everywhere (see the rounding contract in
//! `vbatch_core::interleaved_simd`).
//!
//! The solve-side paths (`solve`, `solve_prepared`, `sweep_triangular`)
//! run sequentially: the lane kernels make them compute-dense enough
//! that the scoped-thread harness' per-call setup (which also
//! allocates) would cost more than it buys at preconditioner-apply
//! sizes, and keeping them sequential preserves the warm-apply
//! zero-allocation guarantee that `vbatch-solver`'s counting-allocator
//! tests pin down.

/// Wide-lane host backend: interleaved classes on explicit SIMD
/// chunks, everything else on the `CpuRayon` paths. See the module
/// docs for the lane mapping and execution policy; the [`crate::Backend`]
/// implementation sits with the other host backends in [`crate::cpu`].
pub struct CpuSimd;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::cpu::{CpuRayon, CpuSequential};
    use crate::plan::{BatchPlan, ClassLayout};
    use crate::stats::ExecStats;
    use vbatch_core::{BatchLayout, MatrixBatch, VectorBatch};
    use vbatch_rt::SmallRng;

    fn random_batch(sizes: &[usize], seed: u64) -> MatrixBatch<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw = vbatch_rt::testgen::dd_batch_of(&mut rng, sizes);
        let mut batch = MatrixBatch::zeros(sizes);
        for i in 0..batch.len() {
            batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
        }
        batch
    }

    #[test]
    fn simd_backend_matches_scalar_backends_bitwise() {
        // a populous interleavable class (non-multiple of every lane
        // width), a second class, and a ragged blocked tail
        let mut sizes = vec![8usize; 21];
        sizes.extend(std::iter::repeat_n(16, 9));
        sizes.push(30);
        let batch = random_batch(&sizes, 99);
        let plan = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 2 },
        );
        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| (i % 9) as f64 / 2.0 - 2.0).collect();

        let mut s_ref = ExecStats::new();
        let f_ref = CpuSequential.factorize(batch.clone(), &plan, &mut s_ref);
        let mut r_ref = VectorBatch::from_flat(&sizes, &flat);
        CpuSequential.solve(&f_ref, &mut r_ref, &mut s_ref);

        let mut s = ExecStats::new();
        let f = CpuSimd.factorize(batch.clone(), &plan, &mut s);
        for blk in 0..sizes.len() {
            assert_eq!(f_ref.row_of_step(blk), f.row_of_step(blk), "block {blk}");
        }
        let mut r = VectorBatch::from_flat(&sizes, &flat);
        CpuSimd.solve(&f, &mut r, &mut s);
        assert_eq!(r_ref.as_slice(), r.as_slice());

        // prepared path is bitwise identical too
        let prep = CpuSimd.prepare_apply(&f);
        let mut v = flat.clone();
        CpuSimd.solve_prepared(&f, &prep, &mut v, &mut s);
        assert_eq!(v.as_slice(), r_ref.as_slice());

        // parity with the parallel scalar backend as well
        let mut s_par = ExecStats::new();
        let f_par = CpuRayon.factorize(batch, &plan, &mut s_par);
        let mut r_par = VectorBatch::from_flat(&sizes, &flat);
        CpuRayon.solve(&f_par, &mut r_par, &mut s_par);
        assert_eq!(r_par.as_slice(), r.as_slice());
    }

    #[test]
    fn simd_backend_records_interleaved_simd_layout() {
        let sizes = vec![8usize; 12];
        let batch = random_batch(&sizes, 5);
        let plan = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 2 },
        );
        let mut s = ExecStats::new();
        let f = CpuSimd.factorize(batch, &plan, &mut s);
        assert_eq!(f.fallback_count(), 0);
        let hist = s.layout_histogram();
        assert_eq!(hist[ClassLayout::InterleavedSimd.label()], 12);
        assert!(!hist.contains_key(ClassLayout::Interleaved.label()));
        // histogram still covers every block exactly once
        let total: u64 = hist.values().sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn blocked_layout_delegates_and_matches() {
        let sizes = [5usize, 9, 17, 33, 2];
        let batch = random_batch(&sizes, 31);
        let plan = BatchPlan::auto_with_layout::<f64>(&sizes, BatchLayout::Blocked);
        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| 1.0 + (i % 5) as f64).collect();

        let mut s1 = ExecStats::new();
        let mut s2 = ExecStats::new();
        let f1 = CpuSimd.factorize(batch.clone(), &plan, &mut s1);
        let f2 = CpuRayon.factorize(batch, &plan, &mut s2);
        let mut r1 = VectorBatch::from_flat(&sizes, &flat);
        let mut r2 = VectorBatch::from_flat(&sizes, &flat);
        CpuSimd.solve(&f1, &mut r1, &mut s1);
        CpuRayon.solve(&f2, &mut r2, &mut s2);
        assert_eq!(r1.as_slice(), r2.as_slice());
        assert_eq!(s1.layout_histogram()["blocked"], 5);
    }
}
