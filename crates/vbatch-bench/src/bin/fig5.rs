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
//! Each row also reports the paper's planner pick for the batch (the
//! `planner` GFLOPS column plus its launch histogram), the host plan's
//! layout histogram, and measured host GFLOPS of the same batch
//! factorized blocked vs interleaved on `CpuSequential` (one thread) and
//! interleaved on `CpuSimd` (the same lane kernels on all threads).
//!
//! The host columns of each row are measured in a fresh process: the bin
//! re-executes itself once per order and precision with `--row
//! {single,double} <n>` appended to its own arguments, and that child
//! prints the row's cells as its last stdout line. A row measured after
//! the others in one process inherits their allocator and cache state:
//! in one process the DP rows of orders 17–22 read 0.80–0.87× what a
//! fresh process measures (EXPERIMENTS.md §U.2).

use std::process::{Command, Stdio};
use vbatch_bench::{
    parse_precision_flag, parse_precond_flag, size_sweep, write_csv, PlannedRow, PrecondKind,
    FIG5_HEADER,
};
use vbatch_core::Scalar;
use vbatch_exec::PrecisionPolicy;
use vbatch_simt::{estimate_factor, DeviceModel, FactorKernel};

const BATCH: usize = 40_000;

/// The argument that makes the bin measure one row and exit.
const ROW_FLAG: &str = "--row";

/// The `planner` to `precond` cells of the order-`n` row in precision
/// `T`, measured by a child process of this bin.
fn measure_in_child<T: Scalar>(n: usize) -> Vec<String> {
    let row = format!("fig5 row {} n={n}", T::PRECISION);
    let exe = std::env::current_exe().expect("path of the running fig5");
    let out = Command::new(exe)
        .args(std::env::args().skip(1))
        .args([ROW_FLAG, T::PRECISION, &n.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .expect("start a fig5 row process");
    assert!(out.status.success(), "{row}: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 row");
    let last = stdout.lines().last().unwrap_or_default();
    let cells: Vec<String> = last.split(',').map(str::to_string).collect();
    assert_eq!(cells.len(), FIG5_HEADER.len() - 7, "{row}: {last:?}");
    cells
}

/// Child mode: measure the row that `--row <precision> <n>` names and
/// print its cells.
fn measure_row(args: &[String], precond: PrecondKind, precision: PrecisionPolicy) {
    let device = DeviceModel::p100();
    let n: usize = args
        .get(1)
        .and_then(|v| v.parse().ok())
        .expect("--row <precision> <n>");
    let row = match args.first().map(String::as_str) {
        Some(p) if p == f32::PRECISION => {
            PlannedRow::measure::<f32>(&device, BATCH, n, precond, precision)
        }
        Some(p) if p == f64::PRECISION => {
            PlannedRow::measure::<f64>(&device, BATCH, n, precond, precision)
        }
        other => panic!("--row precision {other:?}: expected single or double"),
    };
    println!("{}", row.cells().join(","));
}

fn sweep<T: Scalar>(
    device: &DeviceModel,
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
        let cells = measure_in_child::<T>(n);
        line.push_str(&format!(
            " {:>15}  {}  cpu {}/{}/{}  apply {}",
            cells[0], cells[1], cells[2], cells[3], cells[4], cells[7]
        ));
        row.extend(cells);
        println!("{line}");
        rows.push(row);
    }
    (rows, crossover)
}

fn main() {
    let device = DeviceModel::p100();
    let precond = parse_precond_flag();
    let precision = parse_precision_flag();
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == ROW_FLAG) {
        measure_row(&args[at + 1..], precond, precision);
        return;
    }
    println!("Figure 5: batched factorization GFLOPS vs matrix size");
    println!(
        "device: {} (apply column preconditioner: {}, precision policy: {})",
        device.name,
        precond.label(),
        precision.label()
    );
    let (mut rows, sp_cross) = sweep::<f32>(&device, precision);
    let (dp_rows, dp_cross) = sweep::<f64>(&device, precision);
    rows.extend(dp_rows);
    println!(
        "\nLU-vs-GH crossover: SP at size {:?} (paper: ~16), DP at size {:?} (paper: ~23)",
        sp_cross, dp_cross
    );
    let path = write_csv("fig5", &FIG5_HEADER, &rows);
    println!("CSV written to {}", path.display());
}
