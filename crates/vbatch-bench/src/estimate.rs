//! The planner columns of Figs. 4 and 5. [`estimate_planned_factor`]
//! charges the device model with the per-warp cost of the P100 launch
//! each size class of a host plan maps to (the `planner` GFLOPS), and
//! [`PlannedRow`] adds what the host measures for the same batch: every
//! column from `planner` to `precond` of [`crate::FIG4_HEADER`] and
//! [`crate::FIG5_HEADER`].

use crate::{
    factor_health_compact, measure_factor_gflops, measure_precond_apply, uniform_bench_batch,
    PrecondKind,
};
use std::collections::BTreeMap;
use vbatch_core::{BatchLayout, Scalar};
use vbatch_exec::{BatchPlan, CpuSequential, CpuSimd, KernelChoice, PrecisionPolicy};
use vbatch_simt::kernels::{gauss_huard, getrf, large, multi};
use vbatch_simt::{
    factor_nominal_flops, CostCounter, CostTable, DeviceModel, GhStorage, LaunchReport, WARP_SIZE,
};

/// The GPU launch of one size class: one of the paper's three launch
/// shapes for the LU family (which the host runs as one kernel), the
/// family itself for the others. Ordered as the histogram lists them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Launch {
    /// Several problems per warp (§IV-B).
    PackedLu,
    /// One problem per warp, one row per lane (§III).
    SmallLu,
    /// Two rows per lane (§V).
    BlockedLu,
    /// A family with one launch shape.
    Family(KernelChoice),
}

impl Launch {
    /// The launch of a class of `count` blocks of order `n` run with
    /// `family`: packed where a warp holds two problems and the class
    /// two blocks, then the narrowest LU kernel that fits `n`.
    fn of(family: KernelChoice, n: usize, count: usize) -> Self {
        match family {
            KernelChoice::Lu if multi::problems_per_warp(n) >= 2 && count >= 2 => Launch::PackedLu,
            KernelChoice::Lu if n <= WARP_SIZE => Launch::SmallLu,
            KernelChoice::Lu => Launch::BlockedLu,
            family => Launch::Family(family),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Launch::PackedLu => "packed-lu",
            Launch::SmallLu => "small-lu",
            Launch::BlockedLu => "blocked-lu",
            Launch::Family(family) => family.label(),
        }
    }

    /// Per-warp cost of one block of order `n` under this launch, and the
    /// warps a class of `count` such blocks launches. `None` where the
    /// simulator has no model: inversion, Cholesky, blocked LU above its
    /// row limit.
    fn cost<T: Scalar>(self, n: usize, count: usize) -> Option<(CostCounter, u64)> {
        let gh = |storage| gauss_huard::warp_cost::<T>(n, storage);
        let (per_warp, blocks_per_warp) = match self {
            Launch::PackedLu => (multi::warp_cost::<T>(n), multi::problems_per_warp(n)),
            Launch::SmallLu => (getrf::warp_cost::<T>(n), 1),
            Launch::BlockedLu if n <= large::MAX_N => (large::warp_cost::<T>(n), 1),
            Launch::Family(KernelChoice::GaussHuard) => (gh(GhStorage::RowMajor), 1),
            Launch::Family(KernelChoice::GaussHuardT) => (gh(GhStorage::Dual), 1),
            _ => return None,
        };
        Some((per_warp, count.div_ceil(blocks_per_warp) as u64))
    }
}

/// Estimate the factorization launch of `plan` on `device`: the device
/// model's timing and nominal flops of the charged classes, and the
/// launch histogram (`label=count;...`, the `plan_kernels` column). A
/// class the simulator does not model is only listed.
pub fn estimate_planned_factor<T: Scalar>(
    device: &DeviceModel,
    plan: &BatchPlan,
) -> (LaunchReport, String) {
    let mut costs = Vec::new();
    let mut charged_orders = Vec::new();
    let mut launches = BTreeMap::new();
    for class in &plan.classes {
        let launch = Launch::of(class.kernel, class.n, class.count);
        *launches.entry(launch).or_insert(0) += class.count;
        if let Some(cost) = launch.cost::<T>(class.n, class.count) {
            costs.push(cost);
            charged_orders.extend(std::iter::repeat_n(class.n, class.count));
        }
    }
    let histogram: Vec<String> = launches
        .iter()
        .map(|(launch, blocks)| format!("{}={blocks}", launch.label()))
        .collect();
    let report = LaunchReport {
        time: device.estimate(&costs, &CostTable::for_element_bytes(T::BYTES)),
        nominal_flops: factor_nominal_flops(&charged_orders),
    };
    (report, histogram.join(";"))
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
        let (model, plan_kernels) = estimate_planned_factor::<T>(device, &plan);
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
            planner: model.gflops(),
            plan_kernels,
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
    use vbatch_rt::run_cases;

    #[test]
    fn uncharged_classes_move_neither_time_nor_flops() {
        // LU above the simulator's row limit, inversion and Cholesky are
        // listed but not modelled
        let dev = DeviceModel::p100();
        let small = vec![8usize; 50];
        let (base, _) = estimate_planned_factor::<f64>(&dev, &BatchPlan::auto::<f64>(&small));
        let mut plan = BatchPlan::auto::<f64>(&[small, vec![100; 3]].concat());
        for (n, method) in [(101, PlanMethod::GjeInvert), (102, PlanMethod::Cholesky)] {
            plan.classes
                .extend(BatchPlan::for_method::<f64>(&[n, n], method).classes);
        }
        let (report, listed) = estimate_planned_factor::<f64>(&dev, &plan);
        let bits = |r: &LaunchReport| (r.time.seconds.to_bits(), r.nominal_flops.to_bits());
        assert!(base.time.seconds > 0.0);
        assert_eq!(bits(&report), bits(&base));
        assert_eq!(listed, "packed-lu=50;blocked-lu=3;gje-invert=2;cholesky=2");
    }

    #[test]
    fn packed_launches_charge_fewer_warps_than_blocks() {
        // 32 blocks of order 8 pack 4 per warp: the packed estimate must
        // beat one-warp-per-block small LU on time
        let table = CostTable::for_element_bytes(8);
        let time = |launch: Launch| {
            let cost = launch.cost::<f64>(8, 32).unwrap();
            DeviceModel::p100().estimate(&[cost], &table).seconds
        };
        let (packed, small) = (time(Launch::PackedLu), time(Launch::SmallLu));
        assert!(packed < small, "packed {packed} >= unpacked {small}");
    }

    #[test]
    fn lu_launches_blocked_above_32() {
        run_cases("lu_launches_blocked_above_32", 64, |rng, _case| {
            let count = rng.gen_range(1usize..20);
            let sizes: Vec<usize> = (0..count).map(|_| rng.gen_range(1usize..80)).collect();
            for c in &BatchPlan::auto::<f64>(&sizes).classes {
                let blocked = Launch::of(c.kernel, c.n, c.count) == Launch::BlockedLu;
                assert_eq!(blocked, c.n > 32, "class of order {}", c.n);
            }
        });
    }

    #[test]
    fn uniform_small_batches_launch_packed() {
        run_cases("uniform_small_batches_launch_packed", 64, |rng, _case| {
            let n = rng.gen_range(1usize..17);
            let count = rng.gen_range(2usize..50);
            let class = *BatchPlan::auto::<f64>(&vec![n; count]).class(n);
            let launch = Launch::of(class.kernel, n, class.count);
            assert_eq!((launch, class.count), (Launch::PackedLu, count), "n={n}");
        });
    }

    /// The `planner` and `plan_kernels` columns of every uniform auto
    /// plan of order 1..=64 with 1, 2 or 50 blocks, in SP and DP.
    #[test]
    fn uniform_estimates_are_frozen() {
        fn fold<T: Scalar>(h: &mut u64) {
            for (n, count) in (1..=64).flat_map(|n| [(n, 1), (n, 2), (n, 50)]) {
                let plan = BatchPlan::auto::<T>(&vec![n; count]);
                let (report, listed) = estimate_planned_factor::<T>(&DeviceModel::p100(), &plan);
                let bits = [report.time.seconds, report.nominal_flops];
                let bytes = bits.iter().flat_map(|x| x.to_bits().to_le_bytes());
                for b in bytes.chain(listed.bytes()).chain([b';']) {
                    *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        fold::<f32>(&mut h);
        fold::<f64>(&mut h);
        assert_eq!(h, 0xdc74_8fea_dca0_9d17, "estimate moved: {h:#018x}");
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
