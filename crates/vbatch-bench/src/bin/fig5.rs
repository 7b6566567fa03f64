//! **Figure 5**: performance of the batched factorization routines as a
//! function of the *matrix size* (1..32) at a fixed batch of 40,000
//! systems, single and double precision.
//!
//! Shapes to reproduce: the small-size LU rises steeply with the size
//! and overtakes the GH family at ≈16 (SP) / ≈23 (DP); GH-T trails GH
//! slightly at the top end (its extra transposed off-load); the vendor
//! baseline stays low and flat with local peaks at its specialized
//! sizes.
//!
//! Each row also reports the `vbatch-exec` planner's pick for the batch
//! (the `planner` GFLOPS column plus its kernel-choice histogram), the
//! planner's layout histogram, and measured host GFLOPS of the same
//! batch factorized blocked vs interleaved on `CpuSequential` (one
//! thread) and interleaved on `CpuSimd` (the same lane kernels on all
//! threads).

use vbatch_bench::{
    parse_precision_flag, parse_precond_flag, size_sweep, write_csv, PlannedRow, PrecondKind,
    FIG5_HEADER,
};
use vbatch_core::Scalar;
use vbatch_exec::PrecisionPolicy;
use vbatch_simt::{estimate_factor, DeviceModel, FactorKernel};

const BATCH: usize = 40_000;

fn sweep<T: Scalar>(
    device: &DeviceModel,
    precond: PrecondKind,
    precision: PrecisionPolicy,
) -> (Vec<Vec<String>>, Option<usize>) {
    println!("\n-- {} precision, batch = {BATCH} --", T::PRECISION);
    println!(
        "{:>5} {:>15} {:>15} {:>15} {:>15} {:>15}  plan",
        "size", "Small-Size LU", "Gauss-Huard", "Gauss-Huard-T", "cuBLAS LU", "planner"
    );
    let mut rows = Vec::new();
    let mut crossover = None;
    for n in size_sweep() {
        let sizes = vec![n; BATCH];
        let mut row = vec![
            T::PRECISION.to_string(),
            precision.label().to_string(),
            n.to_string(),
        ];
        let mut line = format!("{n:>5}");
        let mut g_lu = 0.0;
        let mut g_gh = 0.0;
        for kernel in FactorKernel::ALL {
            let g = estimate_factor::<T>(device, kernel, &sizes)
                .expect("uniform batch")
                .gflops();
            if kernel == FactorKernel::SmallSizeLu {
                g_lu = g;
            }
            if kernel == FactorKernel::GaussHuard {
                g_gh = g;
            }
            line.push_str(&format!(" {g:>15.1}"));
            row.push(format!("{g:.2}"));
        }
        if crossover.is_none() && n >= 4 && g_lu >= g_gh {
            crossover = Some(n);
        }
        let r = PlannedRow::measure::<T>(device, BATCH, n, precond, precision);
        line.push_str(&format!(
            " {:>15.1}  {}  cpu {:.2}/{:.2}/{:.2}  apply {:.2}",
            r.planner, r.plan_kernels, r.cpu_blocked, r.cpu_interleaved, r.cpu_simd, r.cpu_apply
        ));
        row.extend(r.cells());
        println!("{line}");
        rows.push(row);
    }
    (rows, crossover)
}

fn main() {
    let device = DeviceModel::p100();
    let precond = parse_precond_flag();
    let precision = parse_precision_flag();
    println!("Figure 5: batched factorization GFLOPS vs matrix size");
    println!(
        "device: {} (apply column preconditioner: {}, precision policy: {})",
        device.name,
        precond.label(),
        precision.label()
    );
    let (mut rows, sp_cross) = sweep::<f32>(&device, precond, precision);
    let (dp_rows, dp_cross) = sweep::<f64>(&device, precond, precision);
    rows.extend(dp_rows);
    println!(
        "\nLU-vs-GH crossover: SP at size {:?} (paper: ~16), DP at size {:?} (paper: ~23)",
        sp_cross, dp_cross
    );
    let path = write_csv("fig5", &FIG5_HEADER, &rows);
    println!("CSV written to {}", path.display());
}
