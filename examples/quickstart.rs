//! Quickstart: factorize a variable-size batch of small systems with
//! the paper's implicitly-pivoted LU and solve them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vbatch_lu::prelude::*;

fn main() {
    // --- a single small system --------------------------------------------
    let a = DenseMat::from_row_major(
        3,
        3,
        &[
            1e-10, 2.0, 3.0, // tiny leading pivot: pivoting required
            4.0, 5.0, 6.0, 7.0, 8.0, 10.0,
        ],
    );
    let f = getrf(&a, PivotStrategy::Implicit).expect("nonsingular");
    let x = f.solve(&[1.0, 2.0, 3.0]);
    println!("single 3x3 solve:        x = {x:?}");
    println!(
        "residual |PA - LU|_max    = {:.3e}",
        f.residual(&a).to_f64()
    );

    // --- a variable-size batch, factorized in parallel ---------------------
    let sizes: Vec<usize> = (0..10_000).map(|i| 4 + (i % 29)).collect();
    let mats: Vec<DenseMat<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(s, &n)| {
            DenseMat::from_fn(n, n, |i, j| {
                let h = (i * 31 + j * 17 + s) % 64;
                let v = h as f64 / 32.0 - 1.0;
                if i == j {
                    v + 3.0
                } else {
                    v
                }
            })
        })
        .collect();
    let batch = MatrixBatch::from_matrices(&mats);
    println!(
        "\nbatch: {} systems, sizes {}..{}, {} stored values",
        batch.len(),
        4,
        32,
        batch.total_elements()
    );

    // construct an execution backend explicitly — CpuSequential and
    // CpuSimd (one kernel set, on the calling thread or on the pool) are
    // interchangeable behind the `Backend` trait — let the planner pick
    // a kernel family per size class (LU / Gauss-Huard), and factorize: a
    // `BlockSolve` owns the factors and their apply.
    let backend: std::sync::Arc<dyn Backend<f64>> = std::sync::Arc::new(CpuSimd);
    let plan = BatchPlan::auto::<f64>(&sizes);
    let mut stats = ExecStats::new();
    let t = std::time::Instant::now();
    let solve = BlockSolve::new(backend, batch, &plan, &mut stats);
    let name = solve.backend().name();
    println!("batched GETRF ({name}): {:?}", t.elapsed());
    println!("kernels used:             {}", stats.histogram_compact());
    assert_eq!(solve.fallback_count(), 0);

    // right-hand sides, one flat vector: b_i = A_i * ones
    let mut x: Vec<f64> = mats
        .iter()
        .flat_map(|m| m.matvec(&vec![1.0; m.rows()]))
        .collect();
    let t = std::time::Instant::now();
    solve.apply(&mut x, &mut stats);
    println!("batched GETRS ({name}): {:?}", t.elapsed());

    // verify: every solution is the all-ones vector
    let worst = x.iter().map(|&v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    println!("max |x - 1| over the whole batch = {worst:.3e}");
    assert!(worst < 1e-8);
    println!("\nOK: all {} systems solved.", sizes.len());
}
