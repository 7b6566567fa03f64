//! Micro-benchmarks of the native batched factorization kernels (the
//! CPU layer the figures' SIMT estimates sit on): LU with
//! implicit/explicit/no pivoting, Gauss-Huard (both layouts), GJE
//! inversion and Cholesky, across block sizes. Kernel selection for the
//! planner-driven entries goes through `vbatch-exec`.

use std::hint::black_box;
use std::sync::Arc;
use vbatch_core::{
    batched_gh, batched_gje_invert, make_spd, potrf, DenseMat, Exec, GhLayout, MatrixBatch,
};
use vbatch_exec::{Backend, BatchPlan, CpuRayon, CpuSequential, ExecStats, PlanMethod};
use vbatch_rt::bench::{bench, group};

fn batch(n: usize, count: usize) -> MatrixBatch<f64> {
    let mats: Vec<DenseMat<f64>> = (0..count)
        .map(|s| {
            DenseMat::from_fn(n, n, |i, j| {
                let h = (i * 37 + j * 101 + s * 13 + 7) % 512;
                h as f64 / 256.0 - 1.0 + if i == j { 3.0 } else { 0.0 }
            })
        })
        .collect();
    MatrixBatch::from_matrices(&mats)
}

fn bench_getrf() {
    group("batched_getrf (planner-selected LU family)");
    let backend: Arc<dyn Backend<f64>> = Arc::new(CpuSequential);
    let count = 1_000;
    for n in [8usize, 16, 32] {
        let b = batch(n, count);
        for method in [PlanMethod::Auto, PlanMethod::SmallLu] {
            let plan = BatchPlan::for_method::<f64>(b.sizes(), method);
            bench(&format!("getrf/{method:?}/{n}"), || {
                let mut stats = ExecStats::new();
                let f = backend.factorize(black_box(b.clone()), &plan, &mut stats);
                black_box(f.len())
            });
        }
    }
}

fn bench_gh() {
    group("batched_gauss_huard");
    let count = 1_000;
    for n in [8usize, 16, 32] {
        let b = batch(n, count);
        for (label, layout) in [
            ("normal", GhLayout::Normal),
            ("transposed", GhLayout::Transposed),
        ] {
            bench(&format!("gh/{label}/{n}"), || {
                let f = batched_gh(black_box(&b), layout, Exec::Sequential).unwrap();
                black_box(f.len())
            });
        }
    }
}

fn bench_inversion_and_cholesky() {
    group("batched_inversion");
    let count = 500;
    for n in [16usize, 32] {
        let b = batch(n, count);
        bench(&format!("gje_invert/{n}"), || {
            let inv = batched_gje_invert(black_box(&b), Exec::Sequential).unwrap();
            black_box(inv.len())
        });
        // SPD variants for Cholesky
        let spd: Vec<DenseMat<f64>> = (0..count)
            .map(|s| {
                let seed = DenseMat::from_fn(n, n, |i, j| {
                    ((i * 31 + j * 7 + s) % 128) as f64 / 64.0 - 1.0
                });
                make_spd(&seed)
            })
            .collect();
        bench(&format!("cholesky/{n}"), || {
            let mut ok = 0usize;
            for m in spd.iter() {
                ok += potrf(black_box(m)).is_ok() as usize;
            }
            black_box(ok)
        });
    }
}

fn bench_parallel_scaling() {
    group("getrf_parallel_scaling (4000x32)");
    let b = batch(32, 4_000);
    let plan = BatchPlan::auto::<f64>(b.sizes());
    let backends: [Arc<dyn Backend<f64>>; 2] = [Arc::new(CpuSequential), Arc::new(CpuRayon)];
    for backend in backends {
        bench(&format!("getrf/{}", backend.name()), || {
            let mut stats = ExecStats::new();
            let f = backend.factorize(black_box(b.clone()), &plan, &mut stats);
            black_box(f.len())
        });
    }
}

fn main() {
    bench_getrf();
    bench_gh();
    bench_inversion_and_cholesky();
    bench_parallel_scaling();
}
