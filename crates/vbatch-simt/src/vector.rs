//! `VectorExec`: run the warp kernels' lane arithmetic on real CPU
//! vector lanes — measured, not modeled.
//!
//! The simulator ([`crate::kernels::getrf::GetrfSmallSize`] and
//! friends) executes the paper's one-problem-per-lane mapping
//! functionally and charges a P100 cost model. `VectorExec` is the
//! missing measured half: it maps the same "slot per lane" onto the
//! host's SIMD units by packing the batch into interleaved size classes
//! and running the explicit wide-lane GETRF/TRSV chunks of
//! `vbatch_core::interleaved_simd`, wall-clock-timing the kernels
//! themselves (packing excluded, exactly as the device model excludes
//! upload). The numerical results are bitwise identical to the scalar
//! interleaved kernels — and therefore to the blocked kernels the warp
//! simulator is verified against — so the measured GFLOPS and the
//! modeled GFLOPS describe the *same arithmetic* on two machines.

use crate::launch::factor_nominal_flops;
use std::time::Instant;
use vbatch_core::{
    getrf_interleaved_class_simd_width, lu_solve_interleaved_class_scratch_simd_width, FactorError,
    InterleavedClass, MatrixBatch, Scalar,
};
use vbatch_rt::simd::lane_width;

/// Measured-execution driver; see the module docs.
///
/// `width`: `None` picks the host lane width at run time
/// ([`vbatch_rt::simd::lane_width`]); `Some(w)` forces one of the
/// supported widths {1, 2, 4, 8} (1 = scalar remainder path
/// everywhere), which the differential tests use to prove the result is
/// width-invariant.
#[derive(Clone, Copy, Debug, Default)]
pub struct VectorExec {
    width: Option<usize>,
}

/// Wall-clock measurement of one `VectorExec` run.
#[derive(Clone, Copy, Debug)]
pub struct VectorReport {
    /// Lane width the kernels ran at.
    pub width: usize,
    /// Number of blocks processed.
    pub count: usize,
    /// Kernel wall-clock time in seconds (packing/unpacking excluded).
    pub seconds: f64,
    /// Measured throughput against the nominal LU flop count.
    pub gflops: f64,
    /// Slots that failed to factorize (singular / non-finite).
    pub failures: usize,
}

/// Factorization output of [`VectorExec::run_getrf`]: per-block factors
/// in pivot order, pivot lanes, per-block errors, and the measurement.
pub struct VectorFactors<T: Scalar> {
    /// Combined `L\U` factors per block, rows in pivot order (same
    /// storage contract as the interleaved class kernels).
    pub factors: MatrixBatch<T>,
    /// `row_of_step[k]` per block: original row chosen at step `k`.
    pub row_of_step: Vec<Vec<usize>>,
    /// Per-block factorization errors (`None` = success).
    pub errors: Vec<Option<FactorError>>,
    /// The wall-clock measurement.
    pub report: VectorReport,
}

/// One packed size class awaiting factorization:
/// `(n, member block indices, interleaved data, pivot lanes)`.
type FactorClass<T> = (usize, Vec<usize>, Vec<T>, Vec<usize>);
/// A factorized class plus its packed right-hand-side lanes.
type SolveClass<T> = (usize, Vec<usize>, Vec<T>, Vec<usize>, Vec<T>);

impl VectorExec {
    /// Auto width (host-selected at run time).
    pub fn new() -> Self {
        VectorExec { width: None }
    }

    /// Force an explicit lane width (1, 2, 4 or 8).
    pub fn with_width(width: usize) -> Self {
        VectorExec { width: Some(width) }
    }

    fn width_for<T: Scalar>(&self) -> usize {
        self.width.unwrap_or_else(|| lane_width(T::BYTES))
    }

    /// Factorize the whole batch on vector lanes: group blocks into
    /// size classes, pack each class interleaved, run the lane-wide
    /// GETRF per class and time exactly the kernel calls.
    pub fn run_getrf<T: Scalar>(&self, batch: &MatrixBatch<T>) -> VectorFactors<T> {
        let width = self.width_for::<T>();
        let sizes = batch.sizes().to_vec();
        let mut by_size = std::collections::BTreeMap::<usize, Vec<usize>>::new();
        for (i, &n) in sizes.iter().enumerate() {
            by_size.entry(n).or_default().push(i);
        }
        // pack every class before the clock starts
        let mut classes: Vec<FactorClass<T>> = Vec::new();
        for (n, members) in by_size {
            let packed = InterleavedClass::pack_from(batch, &members);
            let (_, member_idx, data) = packed.into_parts();
            let piv = vec![0usize; n * member_idx.len()];
            classes.push((n, member_idx, data, piv));
        }

        let t0 = Instant::now();
        let mut class_errs: Vec<Vec<Option<FactorError>>> = Vec::with_capacity(classes.len());
        for (n, members, data, piv) in &mut classes {
            class_errs.push(getrf_interleaved_class_simd_width(
                width,
                *n,
                members.len(),
                data,
                piv,
            ));
        }
        let seconds = t0.elapsed().as_secs_f64();

        // unpack factors + pivot lanes per block
        let mut factors = MatrixBatch::zeros(&sizes);
        let mut row_of_step: Vec<Vec<usize>> = sizes.iter().map(|&n| vec![0usize; n]).collect();
        let mut errors: Vec<Option<FactorError>> = vec![None; sizes.len()];
        let mut failures = 0usize;
        for ((n, members, data, piv), errs) in classes.iter().zip(class_errs) {
            let (n, count) = (*n, members.len());
            for (slot, (&blk, err)) in members.iter().zip(errs).enumerate() {
                let out = factors.block_mut(blk);
                for j in 0..n {
                    for i in 0..n {
                        out[j * n + i] = data[(j * n + i) * count + slot];
                    }
                }
                for k in 0..n {
                    row_of_step[blk][k] = piv[k * count + slot];
                }
                if err.is_some() {
                    failures += 1;
                }
                errors[blk] = err;
            }
        }

        let flops = factor_nominal_flops(&sizes);
        let gflops = if seconds > 0.0 {
            flops / seconds / 1e9
        } else {
            0.0
        };
        VectorFactors {
            factors,
            row_of_step,
            errors,
            report: VectorReport {
                width,
                count: sizes.len(),
                seconds,
                gflops,
                failures,
            },
        }
    }

    /// Solve one right-hand side per block through the lane-wide TRSV
    /// sweeps against factors produced by [`VectorExec::run_getrf`],
    /// timing only the kernels. `x` is a flat vector of concatenated
    /// per-block segments, solved in place.
    pub fn run_trsv<T: Scalar>(&self, fact: &VectorFactors<T>, x: &mut [T]) -> VectorReport {
        let width = self.width_for::<T>();
        let sizes = fact.factors.sizes().to_vec();
        assert_eq!(x.len(), sizes.iter().sum::<usize>());
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0usize;
        for &n in &sizes {
            offsets.push(acc);
            acc += n;
        }
        // re-pack factors and rhs into interleaved classes (untimed)
        let mut by_size = std::collections::BTreeMap::<usize, Vec<usize>>::new();
        for (i, &n) in sizes.iter().enumerate() {
            by_size.entry(n).or_default().push(i);
        }
        let mut classes: Vec<SolveClass<T>> = Vec::new();
        for (n, members) in by_size {
            let count = members.len();
            let mut data = vec![T::ZERO; n * n * count];
            let mut piv = vec![0usize; n * count];
            let mut lanes = vec![T::ZERO; n * count];
            for (slot, &blk) in members.iter().enumerate() {
                let f = fact.factors.block(blk);
                for j in 0..n {
                    for i in 0..n {
                        data[(j * n + i) * count + slot] = f[j * n + i];
                    }
                }
                for k in 0..n {
                    piv[k * count + slot] = fact.row_of_step[blk][k];
                }
                for i in 0..n {
                    lanes[i * count + slot] = x[offsets[blk] + i];
                }
            }
            classes.push((n, members, data, piv, lanes));
        }
        let mut scratch = vec![
            T::ZERO;
            classes
                .iter()
                .map(|(n, m, ..)| n * m.len())
                .max()
                .unwrap_or(0)
        ];

        let t0 = Instant::now();
        for (n, members, data, piv, lanes) in &mut classes {
            lu_solve_interleaved_class_scratch_simd_width(
                width,
                *n,
                members.len(),
                data,
                piv,
                lanes,
                &mut scratch,
            );
        }
        let seconds = t0.elapsed().as_secs_f64();

        for (n, members, _, _, lanes) in &classes {
            let count = members.len();
            for (slot, &blk) in members.iter().enumerate() {
                for i in 0..*n {
                    x[offsets[blk] + i] = lanes[i * count + slot];
                }
            }
        }
        let flops: f64 = sizes.iter().map(|&n| 2.0 * (n * n) as f64).sum();
        VectorReport {
            width,
            count: sizes.len(),
            seconds,
            gflops: if seconds > 0.0 {
                flops / seconds / 1e9
            } else {
                0.0
            },
            failures: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_core::{getrf_interleaved_class, lu_solve_interleaved_class};
    use vbatch_rt::SmallRng;

    fn dd_batch(sizes: &[usize], seed: u64) -> MatrixBatch<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw = vbatch_rt::testgen::dd_batch_of(&mut rng, sizes);
        let mut batch = MatrixBatch::zeros(sizes);
        for i in 0..batch.len() {
            batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
        }
        batch
    }

    #[test]
    fn measured_getrf_is_bitwise_equal_to_scalar_interleaved() {
        // two size classes with remainder-unfriendly counts
        let mut sizes = vec![8usize; 11];
        sizes.extend(std::iter::repeat_n(5, 7));
        let batch = dd_batch(&sizes, 17);

        // scalar reference per class
        let members8: Vec<usize> = (0..11).collect();
        let packed = InterleavedClass::<f64>::pack_from(&batch, &members8);
        let (_, _, mut ref_data) = packed.into_parts();
        let mut ref_piv = vec![0usize; 8 * 11];
        let errs = getrf_interleaved_class(8, 11, &mut ref_data, &mut ref_piv);
        assert!(errs.iter().all(|e| e.is_none()));

        for exec in [
            VectorExec::new(),
            VectorExec::with_width(1),
            VectorExec::with_width(2),
            VectorExec::with_width(4),
            VectorExec::with_width(8),
        ] {
            let out = exec.run_getrf(&batch);
            assert_eq!(out.report.failures, 0);
            assert_eq!(out.report.count, sizes.len());
            assert!(out.report.seconds >= 0.0);
            for (slot, &blk) in members8.iter().enumerate() {
                let f = out.factors.block(blk);
                for j in 0..8 {
                    for i in 0..8 {
                        assert_eq!(
                            f[j * 8 + i].to_bits(),
                            ref_data[(j * 8 + i) * 11 + slot].to_bits(),
                            "block {blk} ({i},{j}) width {:?}",
                            out.report.width
                        );
                    }
                }
                for k in 0..8 {
                    assert_eq!(out.row_of_step[blk][k], ref_piv[k * 11 + slot]);
                }
            }
        }
    }

    #[test]
    fn measured_trsv_matches_scalar_class_sweep() {
        let sizes = vec![6usize; 13];
        let batch = dd_batch(&sizes, 23);
        let exec = VectorExec::with_width(4);
        let fact = exec.run_getrf(&batch);
        let total: usize = sizes.iter().sum();
        let mut x: Vec<f64> = (0..total).map(|i| 1.0 + (i % 5) as f64).collect();
        let x0 = x.clone();
        let rep = exec.run_trsv(&fact, &mut x);
        assert_eq!(rep.count, 13);

        // scalar reference
        let members: Vec<usize> = (0..13).collect();
        let packed = InterleavedClass::pack_from(&batch, &members);
        let (_, _, mut data) = packed.into_parts();
        let mut piv = vec![0usize; 6 * 13];
        getrf_interleaved_class(6, 13, &mut data, &mut piv);
        let mut lanes = vec![0.0f64; 6 * 13];
        for (slot, &blk) in members.iter().enumerate() {
            for i in 0..6 {
                lanes[i * 13 + slot] = x0[blk * 6 + i];
            }
        }
        lu_solve_interleaved_class(6, 13, &data, &piv, &mut lanes);
        for (slot, &blk) in members.iter().enumerate() {
            for i in 0..6 {
                assert_eq!(x[blk * 6 + i].to_bits(), lanes[i * 13 + slot].to_bits());
            }
        }
    }

    #[test]
    fn measured_gflops_are_finite_and_positive_on_a_real_workload() {
        let sizes = vec![16usize; 512];
        let batch = dd_batch(&sizes, 3);
        let out = VectorExec::new().run_getrf(&batch);
        assert_eq!(out.report.failures, 0);
        assert!(out.report.seconds > 0.0);
        assert!(out.report.gflops.is_finite() && out.report.gflops > 0.0);
    }
}
