//! Differential validation of block-ILU(0): the batched, level-scheduled
//! implementation must match an independent dense-arithmetic reference
//! factorization to within `c·n·eps` on every backend × layout
//! combination, and the level-scheduled apply must be *bitwise*
//! identical across backends (all of them run the same level order with
//! host numerics).

use std::sync::Arc;
use vbatch_core::{BatchLayout, DenseMat};
use vbatch_exec::{Backend, CpuSequential, CpuSimd, PlanMethod};
use vbatch_precond::{BlockIlu0, BlockPreconditioner, PrecondOptions, Preconditioner};
use vbatch_rt::{run_cases, testgen, SmallRng};
use vbatch_sparse::{BlockPartition, BlockPattern, CooMatrix, CsrMatrix};

fn random_block_system(nodes: usize, dof: usize, extra: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    let n = nodes * dof;
    let mut c = CooMatrix::new(n, n);
    for (i, j, v) in testgen::block_system_triplets(nodes, dof, extra) {
        c.push(i, j, v);
    }
    c.to_csr()
}

fn params(rng: &mut SmallRng) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let nodes = rng.gen_range(2usize..9);
    let dof = rng.gen_range(1usize..6);
    let extra = testgen::extra_couplings(rng, 30, 64, 0.5);
    (nodes, dof, extra)
}

/// Dense-arithmetic reference block-ILU(0): the same blocked IKJ sweep,
/// computed with [`DenseMat`] blocks and exact dense solves, followed
/// by a reference apply `x = U^{-1} L^{-1} v` via block forward /
/// backward substitution. Independent of every batched kernel, layout,
/// and schedule under test.
struct DenseIlu0 {
    part: BlockPartition,
    pattern: BlockPattern,
    blocks: std::collections::HashMap<(usize, usize), DenseMat<f64>>,
}

impl DenseIlu0 {
    fn factor(a: &CsrMatrix<f64>, part: &BlockPartition) -> Self {
        let d = a.to_dense();
        let pattern = BlockPattern::build(a, part);
        let mut blocks = std::collections::HashMap::new();
        for i in 0..part.len() {
            let ri = part.range(i);
            for &j in pattern.row_cols(i) {
                let rj = part.range(j);
                blocks.insert(
                    (i, j),
                    DenseMat::from_fn(ri.len(), rj.len(), |r, c| d[(ri.start + r, rj.start + c)]),
                );
            }
        }
        // blocked IKJ with exact arithmetic: L_ik = A_ik D_k^{-1},
        // then A_ij -= L_ik U_kj for every patterned j > k
        for i in 0..part.len() {
            for kk in 0..pattern.lower_cols(i).len() {
                let k = pattern.lower_cols(i)[kk];
                let dk = blocks[&(k, k)].clone();
                let aik = blocks[&(i, k)].clone();
                let lik = mat_div_right(&aik, &dk);
                blocks.insert((i, k), lik.clone());
                for jj in 0..pattern.upper_cols(k).len() {
                    let j = pattern.upper_cols(k)[jj];
                    if !pattern.contains(i, j) {
                        continue;
                    }
                    let ukj = blocks[&(k, j)].clone();
                    let mut aij = blocks[&(i, j)].clone();
                    for r in 0..aij.rows() {
                        for c in 0..aij.cols() {
                            let mut s = 0.0;
                            for t in 0..dk.rows() {
                                s += lik[(r, t)] * ukj[(t, c)];
                            }
                            aij[(r, c)] -= s;
                        }
                    }
                    blocks.insert((i, j), aij);
                }
            }
        }
        DenseIlu0 {
            part: part.clone(),
            pattern,
            blocks,
        }
    }

    fn apply(&self, v: &[f64]) -> Vec<f64> {
        let nb = self.part.len();
        // forward: w_i = v_i - sum_{k<i} L_ik w_k
        let mut w = v.to_vec();
        for i in 0..nb {
            let ri = self.part.range(i);
            for &k in self.pattern.lower_cols(i) {
                let rk = self.part.range(k);
                let lik = &self.blocks[&(i, k)];
                for r in 0..ri.len() {
                    let mut s = 0.0;
                    for (c, kc) in rk.clone().enumerate() {
                        s += lik[(r, c)] * w[kc];
                    }
                    w[ri.start + r] -= s;
                }
            }
        }
        // backward: x_i = D_i^{-1} (w_i - sum_{j>i} U_ij x_j)
        let mut x = w;
        for i in (0..nb).rev() {
            let ri = self.part.range(i);
            for &j in self.pattern.upper_cols(i) {
                let rj = self.part.range(j);
                let uij = &self.blocks[&(i, j)];
                for r in 0..ri.len() {
                    let mut s = 0.0;
                    for (c, jc) in rj.clone().enumerate() {
                        s += uij[(r, c)] * x[jc];
                    }
                    x[ri.start + r] -= s;
                }
            }
            let rhs: Vec<f64> = x[ri.clone()].to_vec();
            let sol = vbatch_core::solve_system(&self.blocks[&(i, i)], &rhs)
                .expect("reference pivot block must be nonsingular");
            x[ri].copy_from_slice(&sol);
        }
        x
    }
}

/// `B · A^{-1}` with exact dense arithmetic, via transposed solves.
fn mat_div_right(b: &DenseMat<f64>, a: &DenseMat<f64>) -> DenseMat<f64> {
    let at = DenseMat::from_fn(a.rows(), a.cols(), |i, j| a[(j, i)]);
    let mut out = DenseMat::zeros(b.rows(), b.cols());
    for r in 0..b.rows() {
        let row: Vec<f64> = (0..b.cols()).map(|c| b[(r, c)]).collect();
        let sol = vbatch_core::solve_system(&at, &row).expect("pivot block must be nonsingular");
        for c in 0..b.cols() {
            out[(r, c)] = sol[c];
        }
    }
    out
}

fn backends() -> Vec<(&'static str, Arc<dyn Backend<f64>>)> {
    vec![
        ("cpu-seq", Arc::new(CpuSequential)),
        ("cpu-simd", Arc::new(CpuSimd)),
    ]
}

#[test]
fn bilu_matches_dense_reference_on_every_backend_and_layout() {
    run_cases(
        "bilu_matches_dense_reference_on_every_backend_and_layout",
        24,
        |rng, _case| {
            let (nodes, dof, extra) = params(rng);
            let a = random_block_system(nodes, dof, &extra);
            let n = a.nrows();
            let part = BlockPartition::uniform(n, dof);
            let reference = DenseIlu0::factor(&a, &part);
            let v: Vec<f64> = (0..n).map(|i| (i as f64) * 0.23 - 1.5).collect();
            let xref = reference.apply(&v);
            let scale = xref.iter().fold(0.0f64, |s, &t| s.max(t.abs()));
            let tol = 200.0 * n as f64 * f64::EPSILON * (1.0 + scale);
            for (name, backend) in backends() {
                for layout in [BatchLayout::Blocked, BatchLayout::interleaved()] {
                    let m = BlockIlu0::setup_opts(
                        &a,
                        &part,
                        backend.clone(),
                        PrecondOptions::default()
                            .with_method(PlanMethod::Lu)
                            .with_layout(layout),
                    )
                    .unwrap();
                    assert_eq!(m.fallback_blocks, 0, "{name}: unexpected fallback");
                    let x = m.apply(&v);
                    for i in 0..n {
                        assert!(
                            (x[i] - xref[i]).abs() <= tol,
                            "{name}/{layout:?} row {i}: {} vs reference {} (tol {tol:.3e})",
                            x[i],
                            xref[i]
                        );
                    }
                }
            }
        },
    );
}

/// All three backends run the triangular sweeps with host numerics in
/// the same level order and the same per-row accumulation order, so
/// their applies must agree *bitwise* — not just to tolerance.
#[test]
fn bilu_apply_is_bitwise_identical_across_backends() {
    run_cases(
        "bilu_apply_is_bitwise_identical_across_backends",
        24,
        |rng, _case| {
            let (nodes, dof, extra) = params(rng);
            let a = random_block_system(nodes, dof, &extra);
            let n = a.nrows();
            let part = BlockPartition::uniform(n, dof);
            let v: Vec<f64> = (0..n).map(|i| ((i * 11) % 17) as f64 / 3.0 - 2.0).collect();
            let opts = PrecondOptions::default().with_method(PlanMethod::Lu);
            let mut outputs = Vec::new();
            for (name, backend) in backends() {
                let m = BlockIlu0::setup_opts(&a, &part, backend, opts.clone()).unwrap();
                outputs.push((name, m.apply(&v)));
            }
            let (ref_name, ref_x) = &outputs[0];
            for (name, x) in &outputs[1..] {
                assert_eq!(x, ref_x, "{name} differs from {ref_name}");
            }
        },
    );
}

/// Golden for the setup kernels on a ragged partition: every block
/// order 1..=32 twice (so each order forms an interleaved class of
/// two), banded plus long-range couplings, and one block row with no
/// off-diagonal block at all. The column-oriented right-division, the
/// multi-right-hand-side normalisation (blocked, interleaved and
/// column-loop variants all occur under the planner) and the stamped
/// extraction must leave `L̃`, `Ũ` and the apply bitwise equal on the
/// two CPU backends.
#[test]
fn bilu_factors_are_bitwise_identical_across_cpu_backends_on_ragged_partition() {
    let mut rng = SmallRng::seed_from_u64(0xb11u64);
    let mut sizes: Vec<usize> = (1..=32).chain(1..=32).collect();
    for k in (1..sizes.len()).rev() {
        sizes.swap(k, rng.gen_range(0..k + 1));
    }
    let mut ptr = vec![0usize];
    for &s in &sizes {
        ptr.push(ptr.last().unwrap() + s);
    }
    let part = BlockPartition::from_ptr(ptr);
    let (nb, n) = (part.len(), part.total());
    let isolated = nb / 2;
    let mut coo = CooMatrix::new(n, n);
    for b in 0..nb {
        let rb = part.range(b);
        for r in rb.clone() {
            for c in rb.clone() {
                let v = rng.gen_range(-1.0..1.0);
                coo.push(r, c, if r == c { v + 40.0 } else { v });
            }
        }
        for d in [1usize, 3, 17] {
            let o = b + d;
            if o >= nb || b == isolated || o == isolated {
                continue;
            }
            let ro = part.range(o);
            for _ in 0..(rb.len() + ro.len()) {
                let (r, c) = (
                    rng.gen_range(rb.start..rb.end),
                    rng.gen_range(ro.start..ro.end),
                );
                coo.push(r, c, rng.gen_range(-1.0..1.0));
                coo.push(c, r, rng.gen_range(-1.0..1.0));
            }
        }
    }
    let a = coo.to_csr();
    let opts =
        PrecondOptions::default().with_layout(BatchLayout::Interleaved { class_capacity: 2 });
    let v: Vec<f64> = (0..n).map(|i| ((i * 29) % 31) as f64 / 7.0 - 2.0).collect();
    let bits = |x: &[f64]| x.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    let tri_bits = |t: &vbatch_exec::BlockTriangular<f64>| {
        (0..t.nnz_blocks())
            .flat_map(|e| t.block_data(e).iter().map(|x| x.to_bits()))
            .collect::<Vec<_>>()
    };
    let cpu_backends: [(&str, Arc<dyn Backend<f64>>); 2] = [
        ("cpu-seq", Arc::new(CpuSequential)),
        ("cpu-simd", Arc::new(CpuSimd)),
    ];
    let mut golden = None;
    for (name, backend) in cpu_backends {
        let m = BlockIlu0::setup_opts(&a, &part, backend, opts.clone()).unwrap();
        assert_eq!(m.fallback_blocks, 0, "{name}");
        assert_eq!(m.sweep_fallback_pivots, 0, "{name}");
        assert!(m.lower().row_entries(isolated).is_empty());
        assert!(m.upper_tilde().row_entries(isolated).is_empty());
        assert!(m.lower().nnz_blocks() > nb && m.upper_tilde().nnz_blocks() > nb);
        let x = m.apply(&v);
        assert!(x.iter().all(|t| t.is_finite()));
        let got = (tri_bits(m.lower()), tri_bits(m.upper_tilde()), bits(&x));
        match &golden {
            None => golden = Some((name, got)),
            Some((ref_name, want)) => {
                assert!(got.0 == want.0, "{name}: L differs from {ref_name}");
                assert!(got.1 == want.1, "{name}: U~ differs from {ref_name}");
                assert!(got.2 == want.2, "{name}: apply differs from {ref_name}");
            }
        }
    }
}

/// The level-scheduled sweeps inside the apply are bitwise equal to a
/// plain sequential sweep of the same factors (asserted here through
/// the public accessors, complementing the kernel-level test in
/// `vbatch-exec`).
#[test]
fn level_scheduled_sweeps_match_sequential_inside_the_preconditioner() {
    run_cases(
        "level_scheduled_sweeps_match_sequential_inside_the_preconditioner",
        24,
        |rng, _case| {
            let (nodes, dof, extra) = params(rng);
            let a = random_block_system(nodes, dof, &extra);
            let n = a.nrows();
            let part = BlockPartition::uniform(n, dof);
            let m = BlockIlu0::setup_opts(
                &a,
                &part,
                Arc::new(CpuSequential),
                PrecondOptions::default().with_method(PlanMethod::Lu),
            )
            .unwrap();
            let (lo_sched, up_sched) = m.schedules();
            let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin()).collect();
            for (tri, sched) in [(m.lower(), lo_sched), (m.upper_tilde(), up_sched)] {
                let mut seq = v.clone();
                tri.sweep_sequential(&mut seq);
                let mut lev = v.clone();
                tri.sweep_levels(sched, &mut lev);
                let mut par = v.clone();
                tri.sweep_levels_parallel(sched, &mut par);
                assert_eq!(seq, lev);
                assert_eq!(seq, par);
            }
        },
    );
}

/// f32 sanity: the whole pipeline is scalar-generic.
#[test]
fn bilu_works_in_single_precision() {
    let a: CsrMatrix<f32> = {
        let mut c = CooMatrix::new(12, 12);
        for (i, j, v) in testgen::block_system_triplets(4, 3, &[(0, 3, 0.3), (6, 2, -0.2)]) {
            c.push(i, j, v as f32);
        }
        c.to_csr()
    };
    let part = BlockPartition::uniform(12, 3);
    let m = BlockIlu0::setup_opts(
        &a,
        &part,
        Arc::new(CpuSequential),
        PrecondOptions::default().with_method(PlanMethod::Lu),
    )
    .unwrap();
    let v: Vec<f32> = (0..12).map(|i| i as f32 - 5.0).collect();
    let x = m.apply(&v);
    assert!(x.iter().all(|t| t.is_finite()));
    assert_eq!(Preconditioner::<f32>::dim(&m), 12);
}
