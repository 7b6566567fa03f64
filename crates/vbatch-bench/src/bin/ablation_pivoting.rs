//! **Ablation A** (paper §III-A): implicit versus explicit pivoting in
//! the register-resident LU kernel.
//!
//! The explicit variant physically exchanges two lanes' row registers
//! at every step (one shuffle per live row register, the rest of the
//! warp idles); the implicit variant never moves a row and folds the
//! accumulated permutation into the off-load. The table reports the
//! per-warp shuffle counts and the estimated batched GFLOPS of both on
//! the simulated P100, plus the CPU wall-clock of the two native
//! kernels.

use std::time::Instant;
use vbatch_bench::write_csv;
use vbatch_core::{getrf_inplace, DenseMat, MatrixBatch, PivotStrategy};
use vbatch_rt::par::par_map_vec;
use vbatch_simt::kernels::getrf::{warp_cost, warp_cost_explicit_pivot};
use vbatch_simt::{CostTable, DeviceModel, InstrClass};

fn main() {
    let device = DeviceModel::p100();
    let batch = 40_000usize;
    println!("Ablation A: implicit vs explicit pivoting (register LU, DP)");
    println!(
        "\n{:>5} {:>12} {:>12} {:>14} {:>14} {:>9}",
        "size", "shfl (imp)", "shfl (exp)", "GFLOPS (imp)", "GFLOPS (exp)", "speedup"
    );
    let table = CostTable::for_element_bytes(8);
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 24, 32] {
        let ci = warp_cost::<f64>(n);
        let ce = warp_cost_explicit_pivot::<f64>(n);
        let flops = 2.0 / 3.0 * (n as f64).powi(3) * batch as f64;
        let gi = device
            .estimate(&[(ci.clone(), batch as u64)], &table)
            .gflops(flops);
        let ge = device
            .estimate(&[(ce.clone(), batch as u64)], &table)
            .gflops(flops);
        println!(
            "{n:>5} {:>12} {:>12} {gi:>14.1} {ge:>14.1} {:>8.2}x",
            ci.get(InstrClass::Shfl),
            ce.get(InstrClass::Shfl),
            gi / ge
        );
        rows.push(vec![
            n.to_string(),
            ci.get(InstrClass::Shfl).to_string(),
            ce.get(InstrClass::Shfl).to_string(),
            format!("{gi:.2}"),
            format!("{ge:.2}"),
        ]);
    }

    // CPU wall clock of the two native batched kernels
    println!("\nCPU batched GETRF wall clock (10,000 x 32x32, parallel):");
    let mats: Vec<DenseMat<f64>> = (0..10_000)
        .map(|s| {
            DenseMat::from_fn(32, 32, |i, j| {
                let h = (i * 37 + j * 101 + s) % 512;
                h as f64 / 256.0 - 1.0 + if i == j { 3.0 } else { 0.0 }
            })
        })
        .collect();
    let base = MatrixBatch::from_matrices(&mats);
    for strat in [
        PivotStrategy::Implicit,
        PivotStrategy::Explicit,
        PivotStrategy::None,
    ] {
        let mut b = base.clone();
        let t = Instant::now();
        let f = par_map_vec(b.blocks_mut(), |(n, data)| {
            getrf_inplace(strat, n, data).expect("diagonally dominant bench batch factorizes")
        });
        println!("  {strat:?}: {:?} ({} blocks)", t.elapsed(), f.len());
    }
    let path = write_csv(
        "ablation_pivoting",
        &[
            "size",
            "shfl_implicit",
            "shfl_explicit",
            "gflops_implicit",
            "gflops_explicit",
        ],
        &rows,
    );
    println!("\nCSV written to {}", path.display());
}
