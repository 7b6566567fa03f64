//! **Ablation B** (paper §III-B, Fig. 2): "lazy" (DOT) versus "eager"
//! (AXPY) triangular solves.
//!
//! The eager variant wins on the warp: its AXPY needs no reduction and
//! its column reads are coalesced, while the lazy variant pays one
//! butterfly reduction and one strided row read per step.

use std::time::Instant;
use vbatch_bench::write_csv;
use vbatch_core::{
    getrf_inplace, lu_solve_inplace, DenseMat, MatrixBatch, PivotStrategy, TrsvVariant, VectorBatch,
};
use vbatch_rt::par::par_map_vec;
use vbatch_simt::kernels::trsv::{lu_trsv_lazy_warp_cost, lu_trsv_warp_cost};
use vbatch_simt::{CostTable, DeviceModel, InstrClass};

fn main() {
    let device = DeviceModel::p100();
    let batch = 40_000usize;
    let table = CostTable::for_element_bytes(8);
    println!("Ablation B: lazy vs eager triangular solve (DP)");
    println!(
        "\n{:>5} {:>11} {:>11} {:>11} {:>11} {:>13} {:>13}",
        "size", "shfl eager", "shfl lazy", "ld-sect e", "ld-sect l", "GFLOPS eager", "GFLOPS lazy"
    );
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 24, 32] {
        let ce = lu_trsv_warp_cost::<f64>(n);
        let cl = lu_trsv_lazy_warp_cost::<f64>(n);
        let flops = 2.0 * (n as f64).powi(2) * batch as f64;
        let ge = device
            .estimate(&[(ce.clone(), batch as u64)], &table)
            .gflops(flops);
        let gl = device
            .estimate(&[(cl.clone(), batch as u64)], &table)
            .gflops(flops);
        println!(
            "{n:>5} {:>11} {:>11} {:>11} {:>11} {ge:>13.1} {gl:>13.1}",
            ce.get(InstrClass::Shfl),
            cl.get(InstrClass::Shfl),
            ce.gmem_ld_sectors,
            cl.gmem_ld_sectors
        );
        rows.push(vec![
            n.to_string(),
            ce.get(InstrClass::Shfl).to_string(),
            cl.get(InstrClass::Shfl).to_string(),
            ce.gmem_ld_sectors.to_string(),
            cl.gmem_ld_sectors.to_string(),
            format!("{ge:.2}"),
            format!("{gl:.2}"),
        ]);
    }

    // CPU: the two variants of the native kernels
    println!("\nCPU batched GETRS wall clock (10,000 x 32x32, parallel):");
    let mats: Vec<DenseMat<f64>> = (0..10_000)
        .map(|s| {
            DenseMat::from_fn(32, 32, |i, j| {
                let h = (i * 61 + j * 13 + s) % 512;
                h as f64 / 256.0 - 1.0 + if i == j { 3.0 } else { 0.0 }
            })
        })
        .collect();
    let mut factors = MatrixBatch::from_matrices(&mats);
    let perms = par_map_vec(factors.blocks_mut(), |(n, data)| {
        getrf_inplace(PivotStrategy::Implicit, n, data)
            .expect("diagonally dominant bench batch factorizes")
    });
    for variant in TrsvVariant::ALL {
        let mut rhs = VectorBatch::zeros(factors.sizes());
        rhs.as_mut_slice().iter_mut().for_each(|v| *v = 1.0);
        let t = Instant::now();
        par_map_vec(
            rhs.segs_mut().into_iter().enumerate().collect(),
            |(i, seg): (usize, &mut [f64])| {
                lu_solve_inplace(
                    variant,
                    seg.len(),
                    factors.block(i),
                    perms[i].as_slice(),
                    seg,
                )
            },
        );
        println!("  {variant:?}: {:?}", t.elapsed());
    }
    let path = write_csv(
        "ablation_trsv",
        &[
            "size",
            "shfl_eager",
            "shfl_lazy",
            "ld_sectors_eager",
            "ld_sectors_lazy",
            "gflops_eager",
            "gflops_lazy",
        ],
        &rows,
    );
    println!("\nCSV written to {}", path.display());
}
