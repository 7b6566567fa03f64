//! The SIMT-simulator backend: routes every planned kernel to the
//! warp-lockstep functional kernels of `vbatch-simt`, accumulating the
//! device cost counters into [`ExecStats::device_cost`]. Work the
//! simulator has no kernel for (orders above 64, GJE inversion,
//! Cholesky) runs on the host through the same per-block fallback
//! machinery as the CPU backends.

use crate::backend::Backend;
use crate::cpu::{factor_block, invert_cpu};
use crate::factors::{
    block_diag, scalar_jacobi_from_diag, BlockFactor, BlockStatus, FactorizedBatch,
};
use crate::plan::{BatchPlan, ClassLayout, KernelChoice};
use crate::stats::{ExecStats, Phase};
use std::collections::BTreeMap;
use std::time::Instant;
use vbatch_core::{gemv, FactorError, GhLayout, MatrixBatch, Scalar, Storage, VectorBatch};
use vbatch_simt::kernels::multi::problems_per_warp;
use vbatch_simt::{
    DeviceModel, ExtractBatch, ExtractStrategy, GemvBatch, GetrfLarge, GetrfMultiPerWarp,
    GetrfSmallSize, GhBatch, GhSolveBatch, GhStorage, GlobalMem, GlobalMemU32, LuTrsvBatch,
    WARP_SIZE,
};
use vbatch_sparse::{extract_diag_blocks, BlockPartition, CsrMatrix};

/// Largest order the two-rows-per-lane blocked LU covers.
const LARGE_MAX: usize = vbatch_simt::kernels::large::MAX_N;

/// Backend executing every batched routine on the warp-lockstep SIMT
/// simulator (and charging its cost model).
pub struct SimtSim {
    /// Device whose cost tables the simulated kernels charge.
    pub device: DeviceModel,
}

impl SimtSim {
    /// Simulator configured with the paper's P100 device model.
    pub fn new() -> Self {
        SimtSim {
            device: DeviceModel::p100(),
        }
    }
}

impl Default for SimtSim {
    fn default() -> Self {
        Self::new()
    }
}

/// Gather the listed blocks of `blocks` into a dense sub-batch.
fn sub_batch<T: Scalar>(blocks: &MatrixBatch<T>, idx: &[usize]) -> MatrixBatch<T> {
    let sizes: Vec<usize> = idx.iter().map(|&i| blocks.sizes()[i]).collect();
    let mut sub = MatrixBatch::zeros(&sizes);
    for (j, &i) in idx.iter().enumerate() {
        sub.block_mut(j).copy_from_slice(blocks.block(i));
    }
    sub
}

fn fallback_entry<T: Scalar>(
    blocks: &MatrixBatch<T>,
    i: usize,
    kernel: KernelChoice,
    error: FactorError,
) -> (BlockFactor<T>, BlockStatus) {
    let n = blocks.sizes()[i];
    // The simulated device kernels have no dedicated non-finite check:
    // a NaN/Inf block surfaces as a pivot failure there. Re-diagnose on
    // the host so the reported error (and triaged health) matches the
    // CPU backends exactly.
    let error = match vbatch_core::check_finite(n, blocks.block(i)) {
        Err(nf) => nf,
        Ok(()) => error,
    };
    let (factor, sanitized) = scalar_jacobi_from_diag(&block_diag(n, blocks.block(i)));
    (factor, BlockStatus::fallback(kernel, error, sanitized, n))
}

/// Canonical row-major copy of a GH working matrix:
/// `out[k*n + j] = M(k, j)`.
fn gh_canonical<T: Scalar>(f: &vbatch_core::GhFactors<T>) -> Vec<T> {
    let n = f.m.rows();
    let m = f.m.as_slice();
    match f.layout {
        // m = M^T column-major, which is exactly M row-major
        GhLayout::Transposed => m.to_vec(),
        GhLayout::Normal => (0..n * n).map(|i| m[(i % n) * n + i / n]).collect(),
    }
}

/// Column-major copy of the same matrix: `out[k*n + i] = M(i, k)`.
fn gh_colmajor<T: Scalar>(f: &vbatch_core::GhFactors<T>) -> Vec<T> {
    let n = f.m.rows();
    let m = f.m.as_slice();
    match f.layout {
        GhLayout::Normal => m.to_vec(),
        GhLayout::Transposed => (0..n * n).map(|i| m[(i % n) * n + i / n]).collect(),
    }
}

impl<T: Scalar> Backend<T> for SimtSim {
    fn name(&self) -> &'static str {
        "simt-sim"
    }

    fn extract_blocks(
        &self,
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        stats: &mut ExecStats,
    ) -> MatrixBatch<T> {
        let t0 = Instant::now();
        let batch = if part.max_size() <= WARP_SIZE {
            let rp: Vec<u32> = a.row_ptr().iter().map(|&v| v as u32).collect();
            let ci: Vec<u32> = a.col_idx().iter().map(|&v| v as u32).collect();
            let mut dev = ExtractBatch::upload(&rp, &ci, a.values(), part.as_ptr());
            let cost = dev.run_all(ExtractStrategy::SharedMem);
            stats.add_device_cost(&cost);
            let sizes = part.sizes();
            let mut out = MatrixBatch::zeros(&sizes);
            for b in 0..part.len() {
                out.block_mut(b).copy_from_slice(&dev.block_host(b));
            }
            out
        } else {
            // blocks wider than a warp: host extraction
            extract_diag_blocks(a, part)
        };
        stats.add_phase(Phase::Extract, t0.elapsed());
        batch
    }

    fn factorize(
        &self,
        blocks: MatrixBatch<T>,
        plan: &BatchPlan,
        stats: &mut ExecStats,
    ) -> FactorizedBatch<T> {
        assert_eq!(plan.len(), blocks.len(), "plan does not match batch");
        // The simulator has no lowered-precision device kernels; under a
        // lowered policy the whole batch takes the host mixed path (the
        // same one the CPU backends run), keeping policy semantics —
        // promotion, refinement, stats — identical across backends.
        if plan.precision().lowers_storage() && T::HAS_LOWER {
            return crate::cpu::factorize_cpu(blocks, plan, false, stats);
        }
        let t0 = Instant::now();
        stats.add_flops(blocks.getrf_flops());
        // The simulated device reads the batch coalesced regardless of
        // host layout: every block executes the blocked path here.
        stats.record_layout(ClassLayout::Blocked, blocks.len() as u64);
        let sizes = blocks.sizes().to_vec();
        let mut results: Vec<Option<(BlockFactor<T>, BlockStatus)>> = vec![None; blocks.len()];

        let mut small_idx = Vec::new();
        let mut large_idx = Vec::new();
        let mut gh_idx = Vec::new();
        let mut ght_idx = Vec::new();
        let mut packed: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut host_idx = Vec::new();
        for i in 0..blocks.len() {
            match plan.class(sizes[i]).kernel {
                KernelChoice::SmallLu => small_idx.push(i),
                KernelChoice::BlockedLu if sizes[i] <= LARGE_MAX => large_idx.push(i),
                KernelChoice::GaussHuard => gh_idx.push(i),
                KernelChoice::GaussHuardT => ght_idx.push(i),
                KernelChoice::PackedLu => packed.entry(sizes[i]).or_default().push(i),
                // no simulator kernel: blocked LU above 64, GJE, Cholesky
                _ => host_idx.push(i),
            }
        }

        // --- small-size LU: one warp per block ---------------------------
        if !small_idx.is_empty() {
            let sub = sub_batch(&blocks, &small_idx);
            let mut dev = GetrfSmallSize::upload(&sub);
            for (j, &i) in small_idx.iter().enumerate() {
                results[i] = Some(match dev.run_warp(j) {
                    Ok(cost) => {
                        stats.add_device_cost(&cost);
                        (
                            BlockFactor::Lu {
                                lu: Storage::Native(dev.factors_host(j)),
                                perm: dev.perm_host(j),
                            },
                            BlockStatus::factorized(KernelChoice::SmallLu),
                        )
                    }
                    Err(e) => fallback_entry(&blocks, i, KernelChoice::SmallLu, e),
                });
            }
        }

        // --- blocked LU (two rows per lane), orders 33..=64 --------------
        if !large_idx.is_empty() {
            let sub = sub_batch(&blocks, &large_idx);
            match GetrfLarge::upload(&sub) {
                Ok(mut dev) => {
                    for (j, &i) in large_idx.iter().enumerate() {
                        results[i] = Some(match dev.run_warp(j) {
                            Ok(cost) => {
                                stats.add_device_cost(&cost);
                                (
                                    BlockFactor::Lu {
                                        lu: Storage::Native(dev.factors_host(j)),
                                        perm: dev.perm_host(j),
                                    },
                                    BlockStatus::factorized(KernelChoice::BlockedLu),
                                )
                            }
                            Err(e) => fallback_entry(&blocks, i, KernelChoice::BlockedLu, e),
                        });
                    }
                }
                Err(_) => host_idx.extend_from_slice(&large_idx),
            }
        }

        // --- Gauss-Huard / Gauss-Huard-T ---------------------------------
        for (idx, storage, kernel) in [
            (&gh_idx, GhStorage::RowMajor, KernelChoice::GaussHuard),
            (&ght_idx, GhStorage::Dual, KernelChoice::GaussHuardT),
        ] {
            if idx.is_empty() {
                continue;
            }
            let sub = sub_batch(&blocks, idx);
            let mut dev = GhBatch::upload(&sub, storage);
            for (j, &i) in idx.iter().enumerate() {
                results[i] = Some(match dev.run_warp(j) {
                    Ok(cost) => {
                        stats.add_device_cost(&cost);
                        (
                            BlockFactor::Gh(Storage::Native(dev.factors_host(j))),
                            BlockStatus::factorized(kernel),
                        )
                    }
                    Err(e) => fallback_entry(&blocks, i, kernel, e),
                });
            }
        }

        // --- multi-problem-per-warp packing (uniform n ≤ 16) -------------
        for (&n, idx) in &packed {
            let sub = sub_batch(&blocks, idx);
            let uploaded = GetrfMultiPerWarp::upload(&sub);
            match uploaded {
                Ok(mut dev) => {
                    let k = problems_per_warp(n).max(1);
                    for w in 0..dev.warps() {
                        let first = w * k;
                        let here: Vec<usize> = (first..(first + k).min(idx.len())).collect();
                        match dev.run_warp(first) {
                            Ok(cost) => {
                                stats.add_device_cost(&cost);
                                for &j in &here {
                                    results[idx[j]] = Some((
                                        BlockFactor::Lu {
                                            lu: Storage::Native(dev.factors_host(j)),
                                            perm: dev.perm_host(j),
                                        },
                                        BlockStatus::factorized(KernelChoice::PackedLu),
                                    ));
                                }
                            }
                            Err(_) => {
                                // the packed warp fails collectively; redo
                                // its blocks one by one for per-block status
                                for &j in &here {
                                    let i = idx[j];
                                    results[i] = Some(factor_block::<T, T>(
                                        n,
                                        blocks.block(i),
                                        KernelChoice::PackedLu,
                                    ));
                                }
                            }
                        }
                    }
                }
                Err(_) => host_idx.extend_from_slice(idx),
            }
        }

        // --- host paths ---------------------------------------------------
        for &i in &host_idx {
            let kernel = plan.class(sizes[i]).kernel;
            results[i] = Some(factor_block::<T, T>(sizes[i], blocks.block(i), kernel));
        }

        // Every block was routed to exactly one kernel family above.
        let (factors, status): (Vec<_>, Vec<_>) = results
            .into_iter()
            .map(|r| r.expect("block not routed to any kernel family"))
            .unzip();
        let mut batch = FactorizedBatch::blocked(sizes, factors, status);
        crate::health::triage_batch(&blocks, &mut batch, plan.health());
        stats.record_statuses(&batch.status);
        stats.add_phase(Phase::Factorize, t0.elapsed());
        batch
    }

    fn solve(&self, factors: &FactorizedBatch<T>, rhs: &mut VectorBatch<T>, stats: &mut ExecStats) {
        assert_eq!(factors.sizes, rhs.sizes(), "factors do not match rhs");
        let t0 = Instant::now();

        let mut lu_idx = Vec::new();
        let mut gh_row_idx = Vec::new();
        let mut gh_dual_idx = Vec::new();
        let mut inv_idx = Vec::new();
        let mut host_idx = Vec::new();
        for i in 0..factors.len() {
            let n = factors.sizes[i];
            // the device kernels take over only bare native factors; a
            // wrapped or lowered one keeps its host solve
            if factors.wrappers[i].is_some() {
                host_idx.push(i);
                continue;
            }
            match &factors.factors[i] {
                BlockFactor::Lu {
                    lu: Storage::Native(_),
                    ..
                } if n <= WARP_SIZE => lu_idx.push(i),
                BlockFactor::Gh(Storage::Native(_)) if n <= WARP_SIZE => {
                    // the factorization kernel decides the factor layout
                    // the solve kernel streams
                    if factors.status[i].kernel == KernelChoice::GaussHuardT {
                        gh_dual_idx.push(i)
                    } else {
                        gh_row_idx.push(i)
                    }
                }
                BlockFactor::Inv { .. } if n <= WARP_SIZE => inv_idx.push(i),
                _ => host_idx.push(i),
            }
        }

        // --- LU triangular solves (permuted eager sweeps) ----------------
        if !lu_idx.is_empty() {
            let mut values = Vec::new();
            let mut offsets = vec![0usize];
            let mut sizes_v = Vec::new();
            let mut piv = Vec::new();
            let mut rhs_flat: Vec<T> = Vec::new();
            let mut vec_offsets = vec![0usize];
            for &i in &lu_idx {
                if let BlockFactor::Lu {
                    lu: Storage::Native(lu),
                    perm,
                } = &factors.factors[i]
                {
                    values.extend_from_slice(lu);
                    offsets.push(values.len());
                    sizes_v.push(perm.len());
                    piv.extend(perm.as_slice().iter().map(|&p| p as u32));
                    rhs_flat.extend_from_slice(rhs.seg(i));
                    vec_offsets.push(rhs_flat.len());
                }
            }
            let mut dev = LuTrsvBatch {
                values: GlobalMem::from_slice(&values),
                offsets,
                sizes: sizes_v,
                piv: GlobalMemU32::from_slice(&piv),
                rhs: GlobalMem::from_slice(&rhs_flat),
                vec_offsets,
            };
            for (j, &i) in lu_idx.iter().enumerate() {
                match dev.run_warp(j) {
                    Ok(cost) => {
                        stats.add_device_cost(&cost);
                        rhs.seg_mut(i).copy_from_slice(&dev.solution_host(j));
                    }
                    Err(_) => factors.solve_block_inplace(i, rhs.seg_mut(i)),
                }
            }
        }

        // --- Gauss-Huard replay solves -----------------------------------
        for (idx, storage) in [
            (&gh_row_idx, GhStorage::RowMajor),
            (&gh_dual_idx, GhStorage::Dual),
        ] {
            if idx.is_empty() {
                continue;
            }
            let mut canonical: Vec<T> = Vec::new();
            let mut offsets = vec![0usize];
            let mut sizes_v = Vec::new();
            let mut piv = Vec::new();
            let mut rhs_flat: Vec<T> = Vec::new();
            let mut vec_offsets = vec![0usize];
            let mut dual: Vec<T> = Vec::new();
            for &i in idx {
                if let BlockFactor::Gh(Storage::Native(f)) = &factors.factors[i] {
                    canonical.extend(gh_canonical(f));
                    if storage == GhStorage::Dual {
                        dual.extend(gh_colmajor(f));
                    }
                    offsets.push(canonical.len());
                    sizes_v.push(factors.sizes[i]);
                    piv.extend(f.q.as_slice().iter().map(|&p| p as u32));
                    rhs_flat.extend_from_slice(rhs.seg(i));
                    vec_offsets.push(rhs_flat.len());
                }
            }
            let dual_base = canonical.len();
            canonical.extend(dual);
            let mut dev = GhSolveBatch {
                values: GlobalMem::from_slice(&canonical),
                offsets,
                sizes: sizes_v,
                piv: GlobalMemU32::from_slice(&piv),
                rhs: GlobalMem::from_slice(&rhs_flat),
                vec_offsets,
                storage,
                dual_base,
            };
            for (j, &i) in idx.iter().enumerate() {
                match dev.run_warp(j) {
                    Ok(cost) => {
                        stats.add_device_cost(&cost);
                        rhs.seg_mut(i).copy_from_slice(&dev.solution_host(j));
                    }
                    Err(_) => factors.solve_block_inplace(i, rhs.seg_mut(i)),
                }
            }
        }

        // --- explicit inverses: batched GEMV -----------------------------
        if !inv_idx.is_empty() {
            let sizes_v: Vec<usize> = inv_idx.iter().map(|&i| factors.sizes[i]).collect();
            let mut inv_batch = MatrixBatch::zeros(&sizes_v);
            let mut x_flat: Vec<T> = Vec::new();
            for (j, &i) in inv_idx.iter().enumerate() {
                if let BlockFactor::Inv { inv, .. } = &factors.factors[i] {
                    inv_batch.block_mut(j).copy_from_slice(inv);
                }
                x_flat.extend_from_slice(rhs.seg(i));
            }
            let mut dev = GemvBatch::upload(&inv_batch, &x_flat);
            for (j, &i) in inv_idx.iter().enumerate() {
                match dev.run_warp(j) {
                    Ok(cost) => {
                        stats.add_device_cost(&cost);
                        rhs.seg_mut(i).copy_from_slice(&dev.result_host(j));
                    }
                    Err(_) => factors.solve_block_inplace(i, rhs.seg_mut(i)),
                }
            }
        }

        // --- host paths: Cholesky, scalar Jacobi, orders > 32 ------------
        for &i in &host_idx {
            factors.solve_block_inplace(i, rhs.seg_mut(i));
        }

        stats.add_flops(factors.sizes.iter().map(|&n| 2.0 * (n * n) as f64).sum());
        stats.add_phase(Phase::Solve, t0.elapsed());
    }

    fn sweep_triangular(
        &self,
        tri: &crate::tri::BlockTriangular<T>,
        sched: &vbatch_sparse::LevelSchedule,
        v: &mut [T],
        stats: &mut ExecStats,
    ) {
        // Host numerics in level order (bitwise identical to the CPU
        // backends) plus the modeled device charge: one warp barrier
        // per level, and per stored block an FMA per element, the
        // block + operand loads, and the partial-sum store.
        let t0 = Instant::now();
        let mut cost = vbatch_simt::CostCounter::new();
        use vbatch_simt::InstrClass;
        for l in 0..sched.num_levels() {
            cost.count(InstrClass::Sync, 1);
            for &i in sched.level(l) {
                let m = tri.block_size(i);
                for e in tri.row_entries(i) {
                    let k = tri.block_size(tri.col_of(e));
                    cost.count(InstrClass::FFma, (m * k) as u64);
                    cost.count(InstrClass::GMemLd, (m * k + k + m) as u64);
                    cost.count(InstrClass::GMemSt, m as u64);
                    cost.flops(2 * (m * k) as u64);
                }
                tri.sweep_row(i, v);
            }
        }
        stats.add_device_cost(&cost);
        stats.add_flops(tri.sweep_flops());
        stats.add_phase(Phase::Sweep, t0.elapsed());
    }

    fn invert(
        &self,
        blocks: &MatrixBatch<T>,
        stats: &mut ExecStats,
    ) -> (MatrixBatch<T>, Vec<BlockStatus>) {
        // no simulator GJE kernel: deterministic host inversion
        invert_cpu(blocks, false, stats)
    }

    fn apply_gemv(
        &self,
        blocks: &MatrixBatch<T>,
        x: &VectorBatch<T>,
        y: &mut VectorBatch<T>,
        stats: &mut ExecStats,
    ) {
        let t0 = Instant::now();
        if blocks.max_size() <= WARP_SIZE {
            let mut dev = GemvBatch::upload(blocks, x.as_slice());
            for b in 0..blocks.len() {
                match dev.run_warp(b) {
                    Ok(cost) => {
                        stats.add_device_cost(&cost);
                        y.seg_mut(b).copy_from_slice(&dev.result_host(b));
                    }
                    Err(_) => {
                        let xb = x.seg(b);
                        let m = blocks.block_as_mat(b);
                        y.seg_mut(b).copy_from_slice(&m.matvec(xb));
                    }
                }
            }
        } else {
            for (i, out) in y.segs_mut().into_iter().enumerate() {
                gemv(blocks.size(i), blocks.block(i), x.seg(i), out);
            }
        }
        stats.add_flops(blocks.sizes().iter().map(|&n| 2.0 * (n * n) as f64).sum());
        stats.add_phase(Phase::Gemv, t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSequential;
    use crate::plan::{BatchPlan, PlanMethod};
    use vbatch_rt::SmallRng;

    fn random_batch(sizes: &[usize], seed: u64) -> MatrixBatch<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batch = MatrixBatch::zeros(sizes);
        for i in 0..batch.len() {
            let n = sizes[i];
            let block = batch.block_mut(i);
            for c in 0..n {
                for r in 0..n {
                    let v = rng.gen_range(-1.0..1.0);
                    block[c * n + r] = if r == c { v + n as f64 } else { v };
                }
            }
        }
        batch
    }

    fn solve_with<B: Backend<f64>>(
        backend: &B,
        batch: &MatrixBatch<f64>,
        plan: &BatchPlan,
        flat: &[f64],
    ) -> Vec<f64> {
        let mut stats = ExecStats::new();
        let fact = backend.factorize(batch.clone(), plan, &mut stats);
        assert_eq!(fact.fallback_count(), 0);
        let mut rhs = VectorBatch::from_flat(batch.sizes(), flat);
        backend.solve(&fact, &mut rhs, &mut stats);
        rhs.as_slice().to_vec()
    }

    #[test]
    fn simt_matches_cpu_across_methods() {
        let sizes = [4usize, 4, 4, 13, 24, 24, 32, 40, 64];
        let batch = random_batch(&sizes, 19);
        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        for method in [
            PlanMethod::Auto,
            PlanMethod::SmallLu,
            PlanMethod::GaussHuard,
            PlanMethod::GaussHuardT,
            PlanMethod::GjeInvert,
        ] {
            let plan = BatchPlan::for_method::<f64>(&sizes, method);
            let cpu = solve_with(&CpuSequential, &batch, &plan, &flat);
            let simt = solve_with(&SimtSim::new(), &batch, &plan, &flat);
            for (a, b) in cpu.iter().zip(&simt) {
                assert!((a - b).abs() < 1e-8, "{method:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn simt_records_device_cost() {
        let sizes = [8usize, 8, 16, 30];
        let batch = random_batch(&sizes, 5);
        let plan = BatchPlan::auto::<f64>(&sizes);
        let mut stats = ExecStats::new();
        let fact = SimtSim::new().factorize(batch, &plan, &mut stats);
        assert_eq!(fact.fallback_count(), 0);
        let cost = stats.device_cost.clone().expect("device cost recorded");
        assert!(cost.lane_flops > 0);
        assert!(!stats.histogram_compact().is_empty());
    }

    #[test]
    fn simt_extracts_blocks_on_device() {
        use vbatch_sparse::gen::fem::{fem_block_matrix, MeshGraph};
        use vbatch_sparse::supervariable_blocking;
        let mesh = MeshGraph::grid2d(4, 3);
        let a = fem_block_matrix::<f64>(&mesh, 3, 0.4, 0.1, 7);
        let part = supervariable_blocking(&a, 12);
        let mut stats = ExecStats::new();
        let dev = SimtSim::new().extract_blocks(&a, &part, &mut stats);
        let host = extract_diag_blocks(&a, &part);
        assert_eq!(dev.as_slice(), host.as_slice());
        assert!(stats.device_cost.is_some());
    }

    #[test]
    fn simt_singular_block_has_per_block_status() {
        let sizes = [6usize, 6, 6];
        let mut batch = random_batch(&sizes, 23);
        {
            let block = batch.block_mut(1);
            for c in 0..6 {
                block[c * 6 + 2] = block[c * 6 + 4];
            }
        }
        let plan = BatchPlan::auto::<f64>(&sizes);
        let mut stats = ExecStats::new();
        let fact = SimtSim::new().factorize(batch, &plan, &mut stats);
        assert_eq!(fact.fallback_count(), 1);
        assert!(fact.status[1].is_fallback());
        assert!(!fact.status[0].is_fallback() && !fact.status[2].is_fallback());
    }
}
