//! The planner columns of Figs. 4 and 5. [`estimate_planned_factor`]
//! charges the device model with the per-warp cost of whatever kernel
//! the planner selected for each size class (the `planner` GFLOPS), and
//! [`PlannedRow`] adds what the host measures for the same batch: every
//! column from `planner` to `precond` of [`crate::FIG4_HEADER`] and
//! [`crate::FIG5_HEADER`].

use crate::{
    factor_health_compact, measure_factor_gflops, measure_precond_apply, uniform_bench_batch,
};
use vbatch_core::{BatchLayout, Scalar};
use vbatch_exec::{BatchPlan, CpuSequential, CpuSimd, KernelChoice, PrecisionPolicy};
use vbatch_precond::PrecondKind;
use vbatch_simt::kernels::multi::problems_per_warp;
use vbatch_simt::kernels::{gauss_huard, getrf, large, multi};
use vbatch_simt::{
    factor_nominal_flops, CostCounter, CostTable, DeviceModel, GhStorage, LaunchReport,
};

/// Estimate of a planner-driven factorization launch.
pub struct PlannedEstimate {
    /// Device-model timing of the planned kernels plus nominal flops.
    pub report: LaunchReport,
    /// Compact kernel-choice histogram (`label=count;...`).
    pub histogram: String,
}

/// Per-warp cost of one block of order `n` under kernel `k`, plus the
/// number of warps a class of `count` such blocks launches. `None` for
/// kernels the simulator does not model (inversion, Cholesky, blocked
/// LU above its row limit): the estimate leaves those classes out.
fn class_cost<T: Scalar>(k: KernelChoice, n: usize, count: usize) -> Option<(CostCounter, u64)> {
    match k {
        KernelChoice::SmallLu => Some((getrf::warp_cost::<T>(n), count as u64)),
        KernelChoice::GaussHuard => Some((
            gauss_huard::warp_cost::<T>(n, GhStorage::RowMajor),
            count as u64,
        )),
        KernelChoice::GaussHuardT => Some((
            gauss_huard::warp_cost::<T>(n, GhStorage::Dual),
            count as u64,
        )),
        KernelChoice::PackedLu => {
            let per_warp = problems_per_warp(n).max(1);
            Some((multi::warp_cost::<T>(n), count.div_ceil(per_warp) as u64))
        }
        KernelChoice::BlockedLu if n <= large::MAX_N => {
            Some((large::warp_cost::<T>(n), count as u64))
        }
        _ => None,
    }
}

/// Estimate the factorization launch of `plan` over blocks of `sizes`
/// on `device`.
pub fn estimate_planned_factor<T: Scalar>(
    device: &DeviceModel,
    plan: &BatchPlan,
    sizes: &[usize],
) -> PlannedEstimate {
    let costs: Vec<(CostCounter, u64)> = plan
        .classes
        .iter()
        .filter_map(|class| class_cost::<T>(class.kernel, class.n, class.count))
        .collect();
    let table = CostTable::for_element_bytes(T::BYTES);
    PlannedEstimate {
        report: LaunchReport {
            time: device.estimate(&costs, &table),
            nominal_flops: factor_nominal_flops(sizes),
        },
        histogram: plan.histogram_compact(),
    }
}

/// The planner and host columns of one Fig. 4 / Fig. 5 row, for a
/// uniform batch of `count` blocks of order `n`.
pub struct PlannedRow {
    /// Device-model GFLOPS of the planner's kernels (`planner`).
    pub planner: f64,
    /// The plan's kernel histogram (`plan_kernels`).
    pub plan_kernels: String,
    /// Measured host GFLOPS, blocked storage on one thread
    /// (`cpu_blocked`).
    pub cpu_blocked: f64,
    /// Measured host GFLOPS, interleaved storage on one thread
    /// (`cpu_interleaved`).
    pub cpu_interleaved: f64,
    /// Measured host GFLOPS, interleaved storage on the pool
    /// (`cpu_simd`).
    pub cpu_simd: f64,
    /// The plan's layout histogram (`plan_layouts`).
    pub plan_layouts: String,
    /// Health histogram of the batch under guarded triage (`health`).
    pub health: String,
    /// Measured preconditioner-apply GFLOPS (`cpu_apply`).
    pub cpu_apply: f64,
    /// That apply's workspace high-water mark in scalar elements
    /// (`ws_hwm`).
    pub ws_hwm: usize,
    /// The preconditioner whose apply was measured (`precond`).
    pub precond: PrecondKind,
}

impl PlannedRow {
    /// Estimate and measure every column of the row; `precision` is the
    /// storage policy of the three measured factorizations.
    pub fn measure<T: Scalar>(
        device: &DeviceModel,
        count: usize,
        n: usize,
        precond: PrecondKind,
        precision: PrecisionPolicy,
    ) -> Self {
        let sizes = vec![n; count];
        let plan = BatchPlan::auto::<T>(&sizes);
        let planned = estimate_planned_factor::<T>(device, &plan, &sizes);
        let bench = uniform_bench_batch::<T>(count, n);
        let cpu_blocked =
            measure_factor_gflops(&CpuSequential, &bench, BatchLayout::Blocked, precision);
        let cpu_interleaved = measure_factor_gflops(
            &CpuSequential,
            &bench,
            BatchLayout::interleaved(),
            precision,
        );
        let cpu_simd =
            measure_factor_gflops(&CpuSimd, &bench, BatchLayout::interleaved(), precision);
        let health = factor_health_compact(&bench);
        let (cpu_apply, ws_hwm) = measure_precond_apply::<T>(precond, count, n);
        PlannedRow {
            planner: planned.report.gflops(),
            plan_kernels: planned.histogram,
            cpu_blocked,
            cpu_interleaved,
            cpu_simd,
            plan_layouts: plan.layout_compact(),
            health,
            cpu_apply,
            ws_hwm,
            precond,
        }
    }

    /// The row's CSV cells, in header order.
    pub fn cells(&self) -> Vec<String> {
        vec![
            format!("{:.2}", self.planner),
            self.plan_kernels.clone(),
            format!("{:.3}", self.cpu_blocked),
            format!("{:.3}", self.cpu_interleaved),
            format!("{:.3}", self.cpu_simd),
            self.plan_layouts.clone(),
            self.health.clone(),
            format!("{:.3}", self.cpu_apply),
            self.ws_hwm.to_string(),
            self.precond.label().to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FIG4_HEADER, FIG5_HEADER};
    use vbatch_exec::PlanMethod;

    #[test]
    fn planned_estimate_charges_the_planned_kernels() {
        let sizes: Vec<usize> = vec![8; 50].into_iter().chain(vec![24; 30]).collect();
        let plan = BatchPlan::auto::<f64>(&sizes);
        let est = estimate_planned_factor::<f64>(&DeviceModel::p100(), &plan, &sizes);
        assert!(est.report.time.seconds > 0.0);
        assert!(est.report.gflops() > 0.0);
        assert!(est.histogram.contains("packed-lu=50"));
    }

    #[test]
    fn packed_classes_charge_fewer_warps_than_blocks() {
        // 32 blocks of order 8 pack 4 per warp: the packed estimate must
        // beat one-warp-per-block small LU on time
        let sizes = vec![8usize; 32];
        let packed = BatchPlan::auto::<f64>(&sizes);
        let unpacked = BatchPlan::for_method::<f64>(&sizes, PlanMethod::SmallLu);
        let dev = DeviceModel::p100();
        let a = estimate_planned_factor::<f64>(&dev, &packed, &sizes);
        let b = estimate_planned_factor::<f64>(&dev, &unpacked, &sizes);
        assert!(
            a.report.time.seconds < b.report.time.seconds,
            "packed {} >= unpacked {}",
            a.report.time.seconds,
            b.report.time.seconds
        );
    }

    #[test]
    fn planned_row_fills_the_columns_both_headers_share() {
        // Fig. 4 leads with block and batch, Fig. 5 with size; from
        // `planner` on the two headers are the same ten columns
        assert_eq!(&FIG4_HEADER[8..], &FIG5_HEADER[7..]);
        assert_eq!(FIG5_HEADER[7], "planner");
        let row = PlannedRow::measure::<f64>(
            &DeviceModel::p100(),
            48,
            8,
            PrecondKind::BlockJacobi,
            PrecisionPolicy::FullDp,
        );
        let cells = row.cells();
        assert_eq!(cells.len(), FIG5_HEADER.len() - 7);
        assert_eq!(cells[1], row.plan_kernels);
        assert_eq!(cells[6], "healthy=48");
        assert_eq!(cells[9], PrecondKind::BlockJacobi.label());
    }
}
