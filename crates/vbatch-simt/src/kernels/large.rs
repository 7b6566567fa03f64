//! Register-resident LU for block orders 32 < n ≤ 64 — the other half
//! of the paper's future-work item ("optimization of the batched
//! kernels for any problem size", §V).
//!
//! Each lane owns **two** rows (`lane` and `lane + 32`), doubling the
//! register footprint per thread. The implicit-pivoting machinery is
//! unchanged; the pivot search becomes a two-phase reduction (each lane
//! first reduces over its own two rows, then the warp runs the usual
//! butterfly), and every row-wide operation issues twice (once per row
//! register). Occupancy on real hardware would drop accordingly — the
//! cost model reflects the doubled instruction stream.

use crate::cost::CostCounter;
use crate::memory::{GlobalMem, GlobalMemU32, LaneAddrs, WARP_SIZE};
use crate::warp::{lane_active, mask_below, neg_free, zeros, Mask, Regs, WarpCtx};
use vbatch_core::{FactorError, FactorResult, MatrixBatch, Permutation, Scalar};

/// Maximum supported order (two rows per lane).
pub const MAX_N: usize = 2 * WARP_SIZE;

/// Device-side state of a batched large-block LU launch (orders 33–64;
/// smaller blocks should use [`crate::kernels::getrf::GetrfSmallSize`]).
#[derive(Debug)]
pub struct GetrfLarge<T> {
    /// Matrix values (overwritten with the combined factors).
    pub values: GlobalMem<T>,
    /// Per-block offsets.
    pub offsets: Vec<usize>,
    /// Per-block orders.
    pub sizes: Vec<usize>,
    /// Pivot output.
    pub piv: GlobalMemU32,
    /// Prefix sums of `sizes`.
    pub piv_offsets: Vec<usize>,
}

impl<T: Scalar> GetrfLarge<T> {
    /// Upload a host batch (any mix of orders ≤ 64).
    pub fn upload(batch: &MatrixBatch<T>) -> FactorResult<Self> {
        if batch.max_size() > MAX_N {
            return Err(FactorError::TooLarge {
                n: batch.max_size(),
                max: MAX_N,
            });
        }
        let mut piv_offsets = Vec::with_capacity(batch.len() + 1);
        piv_offsets.push(0usize);
        let mut total = 0usize;
        for &n in batch.sizes() {
            total += n;
            piv_offsets.push(total);
        }
        Ok(GetrfLarge {
            values: GlobalMem::from_slice(batch.as_slice()),
            offsets: batch.offsets().to_vec(),
            sizes: batch.sizes().to_vec(),
            piv: GlobalMemU32::zeros(total),
            piv_offsets,
        })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Execute the warp for one block.
    pub fn run_warp(&mut self, block: usize) -> FactorResult<CostCounter> {
        let mut ctx = WarpCtx::new();
        let n = self.sizes[block];
        if n > MAX_N {
            return Err(FactorError::TooLarge { n, max: MAX_N });
        }
        let base = self.offsets[block];
        // half h of row r = h*32 + lane: active half-masks
        let act0: Mask = mask_below(n.min(WARP_SIZE));
        let act1: Mask = mask_below(n.saturating_sub(WARP_SIZE));

        // rows[h][j][lane] = A(h*32 + lane, j), padded to 64 columns
        let mut rows: Vec<[Regs<T>; 2]> = vec![[zeros(), zeros()]; MAX_N];
        for (j, pair) in rows.iter_mut().enumerate().take(n) {
            for (h, half) in pair.iter_mut().enumerate() {
                let mask = if h == 0 { act0 } else { act1 };
                if mask == 0 {
                    continue;
                }
                let mut addrs: LaneAddrs = [None; WARP_SIZE];
                for (lane, slot) in addrs.iter_mut().enumerate() {
                    let r = h * WARP_SIZE + lane;
                    if r < n {
                        *slot = Some(base + j * n + r);
                    }
                }
                *half = self.values.warp_load_streamed(&addrs, &mut ctx.counter);
            }
        }

        // --- implicit pivoting over up to 64 rows -------------------------
        let mut step_of_row = [usize::MAX; MAX_N];
        let mut row_of_step = vec![0u32; n];
        let mut cand = [act0, act1];
        for k in 0..n {
            // two-phase pivot search: per-lane max over its two rows
            // (1 cmp), then the warp butterfly (charged by reduce_argmax)
            let mut best_val = T::ZERO;
            let mut best_row = usize::MAX;
            ctx.counter.count(crate::cost::InstrClass::Cmp, 2);
            for h in 0..2 {
                let absv = ctx.abs(cand[h], &rows[k][h]);
                for lane in 0..WARP_SIZE {
                    if lane_active(cand[h], lane) {
                        let v = absv[lane];
                        if best_row == usize::MAX || v > best_val {
                            best_val = v;
                            best_row = h * WARP_SIZE + lane;
                        }
                    }
                }
            }
            // the butterfly itself
            ctx.counter.count(crate::cost::InstrClass::Shfl, 10);
            ctx.counter.count(crate::cost::InstrClass::Cmp, 5);
            if best_row == usize::MAX || best_val == T::ZERO || !best_val.is_finite() {
                return Err(FactorError::SingularPivot { step: k });
            }
            step_of_row[best_row] = k;
            row_of_step[k] = best_row as u32;
            let (ph, pl) = (best_row / WARP_SIZE, best_row % WARP_SIZE);
            cand[ph] &= !(1 << pl);
            ctx.ialu(1);

            // SCAL on both halves
            let d = ctx.shfl_bcast(&rows[k][ph], pl);
            for h in 0..2 {
                if cand[h] != 0 {
                    rows[k][h] = ctx.div(cand[h], &rows[k][h], &d);
                }
            }
            // trailing update, padded to the full 64 columns (the same
            // eager-padding behaviour as the 32-wide kernel)
            for j in k + 1..MAX_N {
                let pivj = ctx.shfl_bcast(&rows[j][ph], pl);
                let neg = neg_free(&pivj);
                for h in 0..2 {
                    if cand[h] != 0 {
                        rows[j][h] = ctx.fma(cand[h], &rows[k][h], &neg, &rows[j][h]);
                    }
                }
            }
        }

        // --- permuted off-load --------------------------------------------
        for (j, pair) in rows.iter().enumerate().take(n) {
            for (h, half) in pair.iter().enumerate() {
                let mut addrs: LaneAddrs = [None; WARP_SIZE];
                let mut any = false;
                for (lane, slot) in addrs.iter_mut().enumerate() {
                    let r = h * WARP_SIZE + lane;
                    if r < n {
                        *slot = Some(base + j * n + step_of_row[r]);
                        any = true;
                    }
                }
                if any {
                    self.values.warp_store(&addrs, half, &mut ctx.counter);
                }
            }
        }
        let piv_base = self.piv_offsets[block];
        for chunk in 0..n.div_ceil(WARP_SIZE) {
            let mut paddrs: LaneAddrs = [None; WARP_SIZE];
            let mut pvals = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                let s = chunk * WARP_SIZE + lane;
                if s < n {
                    paddrs[lane] = Some(piv_base + s);
                    pvals[lane] = row_of_step[s];
                }
            }
            self.piv.warp_store(&paddrs, &pvals, &mut ctx.counter);
        }
        Ok(ctx.counter)
    }

    /// Run all blocks; returns the summed cost counter.
    pub fn run_all(&mut self) -> FactorResult<CostCounter> {
        let mut total = CostCounter::new();
        for b in 0..self.len() {
            total.merge(&self.run_warp(b)?);
        }
        Ok(total)
    }

    /// Download the factors of one block (column-major, pivot order).
    pub fn factors_host(&self, block: usize) -> Vec<T> {
        let n = self.sizes[block];
        let base = self.offsets[block];
        (0..n * n).map(|i| self.values.peek(base + i)).collect()
    }

    /// Download the pivot permutation of one block.
    pub fn perm_host(&self, block: usize) -> Permutation {
        let n = self.sizes[block];
        let base = self.piv_offsets[block];
        Permutation::from_row_of_step((0..n).map(|k| self.piv.peek(base + k) as usize).collect())
    }
}

/// Per-warp cost of factorizing one block of order `n ≤ 64`.
pub fn warp_cost<T: Scalar>(n: usize) -> CostCounter {
    let block = super::representative_block::<T>(n, n + 53);
    let batch = MatrixBatch::from_matrices(std::slice::from_ref(&block));
    let mut dev = GetrfLarge::upload(&batch).expect("order <= 64");
    dev.run_warp(0).expect("representative block")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::representative_block;
    use vbatch_core::{getrf, getrf_blocked, PivotStrategy};

    #[test]
    fn matches_cpu_implicit_lu_up_to_64() {
        for n in [8usize, 31, 32, 33, 40, 48, 64] {
            let a = representative_block::<f64>(n, n + 9);
            let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
            let mut dev = GetrfLarge::upload(&batch).unwrap();
            dev.run_all().unwrap();
            let cpu = getrf(&a, PivotStrategy::Implicit).unwrap();
            assert_eq!(
                dev.perm_host(0).as_slice(),
                cpu.perm.as_slice(),
                "n={n}: perm"
            );
            for (x, y) in dev.factors_host(0).iter().zip(cpu.lu.as_slice()) {
                assert!((x - y).abs() < 1e-10, "n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn agrees_with_blocked_cpu_solver() {
        let n = 50;
        let a = representative_block::<f64>(n, 77);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) / 7.0 - 3.0).collect();
        let b = a.matvec(&x_true);
        let batch = MatrixBatch::from_matrices(std::slice::from_ref(&a));
        let mut dev = GetrfLarge::upload(&batch).unwrap();
        dev.run_all().unwrap();
        // solve on the host with the downloaded factors
        let lu = dev.factors_host(0);
        let perm = dev.perm_host(0);
        let mut x = b.clone();
        vbatch_core::lu_solve_inplace(n, &lu, perm.as_slice(), &mut x);
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-8);
        }
        // and sanity: the blocked CPU factorization solves it too
        let fb = getrf_blocked(&a, 32).unwrap();
        let xb = fb.solve(&b);
        for (p, q) in xb.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn oversized_rejected() {
        let a = vbatch_core::DenseMat::<f64>::identity(65);
        let batch = MatrixBatch::from_matrices(&[a]);
        assert!(matches!(
            GetrfLarge::upload(&batch),
            Err(FactorError::TooLarge { .. })
        ));
    }

    #[test]
    fn instruction_stream_doubles_versus_small_kernel() {
        use crate::cost::InstrClass;
        // at n = 32 the large kernel pays for its two-row layout
        let small = crate::kernels::getrf::warp_cost::<f64>(32);
        let large = warp_cost::<f64>(32);
        assert!(
            large.get(InstrClass::FFma) > small.get(InstrClass::FFma),
            "two-row layout must issue more instructions at 32"
        );
        // but it is the only register kernel that reaches 64 at all
        let c64 = warp_cost::<f64>(64);
        assert!(c64.lane_flops > 4 * large.lane_flops / 2);
    }

    #[test]
    fn variable_sizes_supported() {
        let mats = vec![
            representative_block::<f64>(20, 1),
            representative_block::<f64>(45, 2),
            representative_block::<f64>(64, 3),
        ];
        let batch = MatrixBatch::from_matrices(&mats);
        let mut dev = GetrfLarge::upload(&batch).unwrap();
        dev.run_all().unwrap();
        for (b, m) in mats.iter().enumerate() {
            let cpu = getrf(m, PivotStrategy::Implicit).unwrap();
            for (x, y) in dev.factors_host(b).iter().zip(cpu.lu.as_slice()) {
                assert!((x - y).abs() < 1e-10, "block {b}");
            }
        }
    }
}
