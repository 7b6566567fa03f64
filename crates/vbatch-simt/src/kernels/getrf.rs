//! The *small-size LU* warp kernel (§III-A): register-resident LU with
//! implicit partial pivoting.
//!
//! One warp factorizes one system. Lane `r` keeps row `r` of the (zero-
//! padded 32×32) matrix entirely in registers; pivot selection is a
//! warp `argmax` reduction; the pivot row is broadcast column-by-column
//! with shuffles; no row is ever moved. The accumulated permutation is
//! applied for free during the off-load: lane `r` simply writes its row
//! to global row `p[r]`, which stays a permutation of a contiguous range
//! and therefore remains fully coalesced.
//!
//! Faithfully reproduced implementation detail (end of §IV-B): for block
//! size `k < 32` the kernel still operates on the padded 32-wide rows —
//! the trailing (eager, right-looking) update always spans the full
//! register width, performing more flops than necessary. This is what
//! makes the small-size LU *lose* against the lazy Gauss-Huard below the
//! ≈16 (SP) / ≈23 (DP) crossover in Fig. 5, and win decisively at 32.

use crate::cost::CostCounter;
use crate::memory::{GlobalMem, GlobalMemU32, LaneAddrs, WARP_SIZE};
use crate::warp::{lane_active, mask_below, neg_free, zeros, Mask, Regs, WarpCtx};
use vbatch_core::{FactorError, FactorResult, MatrixBatch, Permutation, Scalar};

/// Padded register width: every row occupies the full warp width.
pub const PAD: usize = WARP_SIZE;

/// Device-side state of a batched small-size LU launch.
#[derive(Debug)]
pub struct GetrfSmallSize<T> {
    /// Matrix values (input, overwritten by the combined factors).
    pub values: GlobalMem<T>,
    /// Per-block offsets into `values` (host-side kernel argument).
    pub offsets: Vec<usize>,
    /// Per-block orders.
    pub sizes: Vec<usize>,
    /// Pivot output: `row_of_step` entries, concatenated per block at
    /// vector offsets (prefix sums of `sizes`).
    pub piv: GlobalMemU32,
    /// Prefix sums of `sizes` (offsets into `piv`).
    pub piv_offsets: Vec<usize>,
}

impl<T: Scalar> GetrfSmallSize<T> {
    /// Upload a host batch to the simulated device.
    pub fn upload(batch: &MatrixBatch<T>) -> Self {
        let mut piv_offsets = Vec::with_capacity(batch.len() + 1);
        piv_offsets.push(0usize);
        let mut total = 0usize;
        for &n in batch.sizes() {
            total += n;
            piv_offsets.push(total);
        }
        GetrfSmallSize {
            values: GlobalMem::from_slice(batch.as_slice()),
            offsets: batch.offsets().to_vec(),
            sizes: batch.sizes().to_vec(),
            piv: GlobalMemU32::zeros(total),
            piv_offsets,
        }
    }

    /// Number of blocks (= warps launched).
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Execute the warp for block `block`, returning its cost counter.
    pub fn run_warp(&mut self, block: usize) -> FactorResult<CostCounter> {
        let mut ctx = WarpCtx::new();
        let n = self.sizes[block];
        if n > WARP_SIZE {
            return Err(FactorError::TooLarge { n, max: WARP_SIZE });
        }
        let base = self.offsets[block];
        let act: Mask = mask_below(n);

        // --- load: one coalesced column read per column, row r -> lane r
        // (a streaming sweep — addresses known upfront, latency hidden)
        let mut rows: [Regs<T>; PAD] = [zeros(); PAD];
        for (j, row) in rows.iter_mut().enumerate().take(n) {
            let mut addrs: LaneAddrs = [None; WARP_SIZE];
            for (lane, slot) in addrs.iter_mut().enumerate().take(n) {
                *slot = Some(base + j * n + lane);
            }
            *row = self.values.warp_load_streamed(&addrs, &mut ctx.counter);
        }

        // --- factorization with implicit pivoting ------------------------
        // step_of_row: per-lane flag (usize::MAX = not yet pivoted)
        let mut step_of_row = [usize::MAX; WARP_SIZE];
        let mut row_of_step = [0u32; WARP_SIZE];
        let mut cand: Mask = act;
        for k in 0..n {
            // pivot selection over the candidate lanes
            let absv = ctx.abs(cand, &rows[k]);
            let (ipiv, best) = match ctx.reduce_argmax(cand, &absv) {
                Some(r) => r,
                None => return Err(FactorError::SingularPivot { step: k }),
            };
            if best == T::ZERO || !best.is_finite() {
                return Err(FactorError::SingularPivot { step: k });
            }
            step_of_row[ipiv] = k;
            row_of_step[k] = ipiv as u32;
            cand &= !(1 << ipiv);
            ctx.ialu(1); // predicate update

            // SCAL of the pivot column on the still-unpivoted lanes
            let d = ctx.shfl_bcast(&rows[k], ipiv);
            rows[k] = ctx.div(cand, &rows[k], &d);

            // padded eager trailing update: ALWAYS the full register
            // width (PAD), regardless of n — the paper's noted detail
            for j in k + 1..PAD {
                let pivj = ctx.shfl_bcast(&rows[j], ipiv);
                let neg = neg_free(&pivj);
                rows[j] = ctx.fma(cand, &rows[k], &neg, &rows[j]);
            }
        }

        // --- off-load with the combined row swap folded in ---------------
        // lane r writes its row to global row step_of_row[r]; within each
        // column this is a permutation of a contiguous range -> coalesced.
        for (j, row) in rows.iter().enumerate().take(n) {
            let mut addrs: LaneAddrs = [None; WARP_SIZE];
            for (lane, slot) in addrs.iter_mut().enumerate() {
                if lane_active(act, lane) {
                    *slot = Some(base + j * n + step_of_row[lane]);
                }
            }
            self.values.warp_store(&addrs, row, &mut ctx.counter);
        }
        // pivot vector off-load (coalesced)
        let piv_base = self.piv_offsets[block];
        let mut paddrs: LaneAddrs = [None; WARP_SIZE];
        for (lane, slot) in paddrs.iter_mut().enumerate().take(n) {
            *slot = Some(piv_base + lane);
        }
        self.piv.warp_store(&paddrs, &row_of_step, &mut ctx.counter);
        Ok(ctx.counter)
    }

    /// Run the whole batch; returns the summed cost counter.
    pub fn run_all(&mut self) -> FactorResult<CostCounter> {
        let mut total = CostCounter::new();
        for b in 0..self.len() {
            total.merge(&self.run_warp(b)?);
        }
        Ok(total)
    }

    /// Download the factors of block `block` as column-major data.
    pub fn factors_host(&self, block: usize) -> Vec<T> {
        let n = self.sizes[block];
        let base = self.offsets[block];
        (0..n * n).map(|i| self.values.peek(base + i)).collect()
    }

    /// Download the pivot permutation of block `block`.
    pub fn perm_host(&self, block: usize) -> Permutation {
        let n = self.sizes[block];
        let base = self.piv_offsets[block];
        Permutation::from_row_of_step((0..n).map(|k| self.piv.peek(base + k) as usize).collect())
    }
}

/// Register-resident LU with **explicit** pivoting — the ablation
/// baseline the paper's implicit scheme replaces (§III-A): after the
/// pivot search, rows `k` and `ipiv` are physically exchanged between
/// two lanes. With one row per lane, the exchange costs one shuffle per
/// row register (the whole warp participates but only two lanes carry
/// payload — the "remaining threads stay idle" cost).
///
/// Returns the per-warp cost for a representative block of order `n`,
/// verifying the numerics against the CPU explicit-pivot kernel.
pub fn warp_cost_explicit_pivot<T: Scalar>(n: usize) -> CostCounter {
    use crate::memory::GlobalMem;
    // scale row i by (1 + i) so the column maximum tends to sit in a
    // later row: partial pivoting then swaps at almost every step, the
    // realistic case for matrices that are not diagonally dominant
    let base = super::representative_block::<T>(n, n + 23);
    let block =
        vbatch_core::DenseMat::from_fn(n, n, |i, j| base[(i, j)] * T::from_f64(1.0 + i as f64));
    let mut ctx = WarpCtx::new();
    let mem = GlobalMem::from_slice(block.as_slice());
    let act = mask_below(n);

    // load (same as the implicit kernel)
    let mut rows: [Regs<T>; PAD] = [zeros(); PAD];
    for (j, row) in rows.iter_mut().enumerate().take(n) {
        let mut addrs: LaneAddrs = [None; WARP_SIZE];
        for (lane, slot) in addrs.iter_mut().enumerate().take(n) {
            *slot = Some(j * n + lane);
        }
        *row = mem.warp_load_streamed(&addrs, &mut ctx.counter);
    }
    for k in 0..n {
        let cand = act & !mask_below(k);
        let absv = ctx.abs(cand, &rows[k]);
        let (ipiv, _) = ctx
            .reduce_argmax(cand, &absv)
            .expect("representative block is nonsingular");
        // EXPLICIT swap: one shuffle per live row register
        if ipiv != k {
            let mut src = [0usize; WARP_SIZE];
            for (l, s) in src.iter_mut().enumerate() {
                *s = if l == k {
                    ipiv
                } else if l == ipiv {
                    k
                } else {
                    l
                };
            }
            // full rows are exchanged (the L part moves with the row,
            // exactly like the reference LAPACK swap)
            for row in rows.iter_mut().take(PAD) {
                *row = ctx.shfl(row, &src);
            }
        }
        let d = ctx.shfl_bcast(&rows[k], k);
        let trail = act & !mask_below(k + 1);
        rows[k] = ctx.div(trail, &rows[k], &d);
        for j in k + 1..PAD {
            let pivj = ctx.shfl_bcast(&rows[j], k);
            let neg = neg_free(&pivj);
            rows[j] = ctx.fma(trail, &rows[k], &neg, &rows[j]);
        }
    }
    // verify numerics against the CPU explicit kernel
    let cpu = vbatch_core::getrf(&block, vbatch_core::PivotStrategy::Explicit)
        .expect("representative block");
    for j in 0..n {
        for lane in 0..n {
            let got = rows[j][lane].to_f64();
            let want = cpu.lu[(lane, j)].to_f64();
            assert!(
                (got - want).abs() < 1e-10,
                "explicit SIMT LU mismatch at ({lane},{j}): {got} vs {want}"
            );
        }
    }
    ctx.counter
}

/// Cost of factorizing one block of order `n` (data-independent for this
/// kernel; computed by running a representative block).
pub fn warp_cost<T: Scalar>(n: usize) -> CostCounter {
    let block = super::representative_block::<T>(n, n);
    let batch = MatrixBatch::from_matrices(std::slice::from_ref(&block));
    let mut dev = GetrfSmallSize::upload(&batch);
    dev.run_warp(0)
        .expect("representative block must factorize")
}

/// Per-size deduplicated costs for a variable-size batch: one
/// `(cost, multiplicity)` entry per distinct order.
pub fn batch_cost<T: Scalar>(sizes: &[usize]) -> Vec<(CostCounter, u64)> {
    let mut by_size: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for &n in sizes {
        *by_size.entry(n).or_insert(0) += 1;
    }
    by_size
        .into_iter()
        .map(|(n, count)| (warp_cost::<T>(n), count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::InstrClass;
    use vbatch_core::{getrf, DenseMat, PivotStrategy};

    fn batch_of(sizes: &[usize]) -> MatrixBatch<f64> {
        let mats: Vec<DenseMat<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(s, &n)| super::super::representative_block(n, s + 1))
            .collect();
        MatrixBatch::from_matrices(&mats)
    }

    #[test]
    fn matches_cpu_implicit_lu_exactly() {
        let batch = batch_of(&[1, 2, 3, 5, 8, 13, 16, 21, 27, 32]);
        let mut dev = GetrfSmallSize::upload(&batch);
        dev.run_all().unwrap();
        for b in 0..batch.len() {
            let a = batch.block_as_mat(b);
            let cpu = getrf(&a, PivotStrategy::Implicit).unwrap();
            let gpu_lu = dev.factors_host(b);
            let gpu_perm = dev.perm_host(b);
            assert_eq!(
                gpu_perm.as_slice(),
                cpu.perm.as_slice(),
                "block {b}: permutation mismatch"
            );
            for (x, y) in gpu_lu.iter().zip(cpu.lu.as_slice()) {
                assert!(
                    (x - y).abs() < 1e-12,
                    "block {b}: factor mismatch {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn singular_block_detected() {
        let a = DenseMat::from_row_major(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let batch = MatrixBatch::from_matrices(&[a]);
        let mut dev = GetrfSmallSize::upload(&batch);
        assert!(matches!(
            dev.run_warp(0),
            Err(FactorError::SingularPivot { .. })
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let a = DenseMat::<f64>::identity(33);
        let batch = MatrixBatch::from_matrices(&[a]);
        let mut dev = GetrfSmallSize::upload(&batch);
        assert_eq!(
            dev.run_warp(0).unwrap_err(),
            FactorError::TooLarge { n: 33, max: 32 }
        );
    }

    #[test]
    fn loads_and_stores_are_coalesced() {
        let c = warp_cost::<f64>(32);
        // 32 column loads of 32 f64 = 8 sectors each, plus stores + pivot
        assert_eq!(c.get(InstrClass::GMemLd), 32);
        assert_eq!(c.gmem_ld_sectors, 32 * 8);
        assert_eq!(c.get(InstrClass::GMemSt), 33); // 32 columns + pivot vector
        assert_eq!(c.gmem_st_sectors, 32 * 8 + 4);
    }

    #[test]
    fn padded_update_makes_small_sizes_expensive() {
        // instruction count per step is ~(PAD - k) regardless of n, so a
        // 16x16 block costs far more than (16/32)^3 of a 32x32 block
        let c16 = warp_cost::<f64>(16);
        let c32 = warp_cost::<f64>(32);
        let f16 = c16.get(InstrClass::FFma) as f64;
        let f32_ = c32.get(InstrClass::FFma) as f64;
        // unpadded ratio would be ~0.19 (fma instr count ~ sum of widths);
        // padded ratio must be far higher
        assert!(
            f16 / f32_ > 0.6,
            "expected heavy padding overhead, got ratio {}",
            f16 / f32_
        );
    }

    #[test]
    fn cost_is_data_independent() {
        let b1 = batch_of(&[17]);
        let m2 = DenseMat::from_fn(17, 17, |i, j| {
            ((i * 7 + j * 3) as f64).sin() + if i == j { 3.0 } else { 0.0 }
        });
        let b2 = MatrixBatch::from_matrices(&[m2]);
        let mut d1 = GetrfSmallSize::upload(&b1);
        let mut d2 = GetrfSmallSize::upload(&b2);
        let c1 = d1.run_warp(0).unwrap();
        let c2 = d2.run_warp(0).unwrap();
        assert_eq!(c1.instr, c2.instr);
        assert_eq!(c1.gmem_ld_sectors, c2.gmem_ld_sectors);
    }

    #[test]
    fn batch_cost_dedups_by_size() {
        let costs = batch_cost::<f32>(&[4, 4, 8, 4, 8, 16]);
        assert_eq!(costs.len(), 3);
        let total: u64 = costs.iter().map(|(_, m)| m).sum();
        assert_eq!(total, 6);
        assert_eq!(costs[0].1, 3); // three 4x4 blocks
    }

    #[test]
    fn solve_through_simt_factors_works() {
        use vbatch_core::trsv::lu_solve_inplace;
        let batch = batch_of(&[7]);
        let a = batch.block_as_mat(0);
        let x_true: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let mut b = a.matvec(&x_true);
        let mut dev = GetrfSmallSize::upload(&batch);
        dev.run_all().unwrap();
        let lu = dev.factors_host(0);
        let perm = dev.perm_host(0);
        lu_solve_inplace(7, &lu, perm.as_slice(), &mut b);
        for i in 0..7 {
            assert!((b[i] - x_true[i]).abs() < 1e-10);
        }
    }
}
