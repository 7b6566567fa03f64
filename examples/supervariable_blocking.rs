//! Show the supervariable blocking + extraction pipeline (§II-A,
//! §III-C): detect the natural block structure of a multi-dof FEM
//! matrix, agglomerate under different upper bounds, extract the
//! diagonal blocks, and report how much of the matrix they capture.
//!
//! ```sh
//! cargo run --release --example supervariable_blocking
//! ```

use vbatch_lu::prelude::*;
use vbatch_sparse::block_coverage;
use vbatch_sparse::find_supervariables;
use vbatch_sparse::gen::fem::{fem_variable_block_matrix, mixed_dofs, MeshGraph};

fn main() {
    // a mesh whose nodes carry 2, 3 or 5 unknowns — variable supervariables
    let mesh = MeshGraph::grid2d(16, 16);
    let dofs = mixed_dofs(mesh.nodes, &[2, 3, 5], 99);
    let a = fem_variable_block_matrix::<f64>(&mesh, &dofs, 0.35, 5);
    println!("matrix: n = {}, nnz = {}", a.nrows(), a.nnz());

    let sv = find_supervariables(&a);
    let mut hist = std::collections::BTreeMap::new();
    for s in sv.sizes() {
        *hist.entry(s).or_insert(0usize) += 1;
    }
    println!(
        "supervariables detected: {} — size histogram {hist:?}",
        sv.len()
    );

    println!(
        "\n{:>6} {:>8} {:>10} {:>10} {:>10}",
        "bound", "blocks", "max size", "coverage", "avg size"
    );
    for bound in [8usize, 12, 16, 24, 32] {
        let part = supervariable_blocking(&a, bound);
        let cov = block_coverage(&a, &part);
        let avg = part.total() as f64 / part.len() as f64;
        println!(
            "{bound:>6} {:>8} {:>10} {:>9.1}% {:>10.2}",
            part.len(),
            part.max_size(),
            cov * 100.0,
            avg
        );
    }

    // extract at bound 32 and factorize the batch
    let part = supervariable_blocking(&a, 32);
    let blocks = extract_diag_blocks(&a, &part);
    println!(
        "\nextracted {} diagonal blocks ({} values total)",
        blocks.len(),
        blocks.total_elements()
    );
    let plan = BatchPlan::for_method::<f64>(blocks.sizes(), PlanMethod::SmallLu);
    let mut stats = ExecStats::new();
    let t = std::time::Instant::now();
    let solve = BlockSolve::new(std::sync::Arc::new(CpuSimd), blocks, &plan, &mut stats);
    println!(
        "batched LU of all blocks: {:?} ({} blocks)",
        t.elapsed(),
        solve.statuses().len()
    );
    assert_eq!(solve.fallback_count(), 0);
}
