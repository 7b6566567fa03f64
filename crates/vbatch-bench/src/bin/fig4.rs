//! **Figure 4**: performance of the batched factorization routines as a
//! function of the *batch size*, for block sizes 16 and 32, in single
//! and double precision, on the simulated P100.
//!
//! Paper's shape to reproduce: all curves ramp up and saturate; at block
//! size 16 the GH family leads (the padded eager LU wastes flops) and
//! the vendor baseline trails slightly; at block size 32 the small-size
//! LU wins by a wide margin (~3.5x over the vendor kernel).
//!
//! On top of the paper's fixed-kernel curves, each row reports what the
//! `vbatch-exec` planner would pick for the batch (the `planner` GFLOPS
//! column plus its kernel-choice histogram), and three *measured* host
//! columns: factorizing the same batch on `CpuSequential` with blocked
//! vs interleaved storage (the CPU analogue of the paper's coalescing
//! argument, see DESIGN.md "Interleaved layout"), and on `CpuSimd` over
//! the interleaved storage — the same lane kernels with the chunks of a
//! class spread over all threads.

use vbatch_bench::{
    parse_precision_flag, parse_precond_flag, write_csv, PlannedRow, PrecondKind, BATCH_SWEEP,
    FIG4_HEADER,
};
use vbatch_core::Scalar;
use vbatch_exec::PrecisionPolicy;
use vbatch_simt::{estimate_factor, DeviceModel, FactorKernel};

fn sweep<T: Scalar>(
    device: &DeviceModel,
    block: usize,
    precond: PrecondKind,
    precision: PrecisionPolicy,
) -> Vec<Vec<String>> {
    println!("\n-- {} precision, block size {block} --", T::PRECISION);
    println!(
        "{:>8} {:>15} {:>15} {:>15} {:>15} {:>15} {:>12} {:>12} {:>12}",
        "batch",
        "Small-Size LU",
        "Gauss-Huard",
        "Gauss-Huard-T",
        "cuBLAS LU",
        "planner",
        "cpu-blocked",
        "cpu-interlvd",
        "cpu-simd"
    );
    let mut rows = Vec::new();
    for &batch in BATCH_SWEEP.iter() {
        let sizes = vec![block; batch];
        let mut row = vec![
            T::PRECISION.to_string(),
            precision.label().to_string(),
            block.to_string(),
            batch.to_string(),
        ];
        let mut line = format!("{batch:>8}");
        for kernel in FactorKernel::ALL {
            let g = estimate_factor::<T>(device, kernel, &sizes)
                .expect("uniform batch")
                .gflops();
            line.push_str(&format!(" {g:>15.1}"));
            row.push(format!("{g:.2}"));
        }
        let r = PlannedRow::measure::<T>(device, batch, block, precond, precision);
        line.push_str(&format!(
            " {:>15.1} {:>12.2} {:>12.2} {:>12.2} apply {:.2}",
            r.planner, r.cpu_blocked, r.cpu_interleaved, r.cpu_simd, r.cpu_apply
        ));
        row.extend(r.cells());
        println!("{line}");
        rows.push(row);
    }
    rows
}

fn main() {
    let device = DeviceModel::p100();
    let precond = parse_precond_flag();
    let precision = parse_precision_flag();
    println!("Figure 4: batched factorization GFLOPS vs batch size");
    println!(
        "device: {} (apply column preconditioner: {}, precision policy: {})",
        device.name,
        precond.label(),
        precision.label()
    );
    let mut rows = Vec::new();
    for block in [16usize, 32] {
        rows.extend(sweep::<f32>(&device, block, precond, precision));
    }
    for block in [16usize, 32] {
        rows.extend(sweep::<f64>(&device, block, precond, precision));
    }
    let path = write_csv("fig4", &FIG4_HEADER, &rows);
    println!("\nCSV written to {}", path.display());
}
