//! **Ablation B** (paper §III-B, Fig. 2): "lazy" (DOT) versus "eager"
//! (AXPY) triangular solves.
//!
//! The eager variant wins on the warp: its AXPY needs no reduction and
//! its column reads are coalesced, while the lazy variant pays one
//! butterfly reduction and one strided row read per step. Both sides
//! are the SIMT cost model's; the host kernels run the eager variant
//! only (EXPERIMENTS.md §B has the last host timing of both).

use vbatch_bench::write_csv;
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
