//! Precision-policy differential suite: the same batches run under
//! every (backend × layout × precision policy) combination.
//!
//! Contracts locked down here:
//!
//! * **promotion is metamorphic** — switching a batch from `FullDp` to
//!   `MixedPromote` never moves any block's solution beyond a
//!   refinement-level tolerance, on every backend and layout, including
//!   blocks the condest gate promoted back to working precision;
//! * **`ForceSp` ≡ `MixedPromote` bitwise** on a well-conditioned batch:
//!   the gate examines every lowered block and promotes none, so the
//!   factors (and therefore the solutions) are identical bits;
//! * the triage condest is computed once by the promotion pass and
//!   reused by health triage (satellite of PR 9);
//! * at the `f32` precision floor the lowered policies degenerate to
//!   the unchanged native path, bitwise.

use vbatch_core::{BatchLayout, MatrixBatch, StoragePrecision, VectorBatch};
use vbatch_exec::{
    Backend, BatchPlan, CpuSequential, CpuSimd, ExecStats, FactorizedBatch, HealthPolicy,
    PlanMethod, PrecisionPolicy,
};
use vbatch_rt::{run_cases, testgen, SmallRng};

/// Agreement bound between a mixed-storage solve and the full-DP solve
/// of the same well-conditioned block: one widened refinement step
/// against the retained DP block recovers working-precision accuracy,
/// so the gap is refinement-level, far below single-precision roundoff.
const MIXED_TOL: f64 = 1e-9;

const LAYOUTS: [BatchLayout; 2] = [
    BatchLayout::Blocked,
    BatchLayout::Interleaved { class_capacity: 2 },
];

const POLICIES: [PrecisionPolicy; 2] = [PrecisionPolicy::MixedPromote, PrecisionPolicy::ForceSp];

fn random_batch(rng: &mut SmallRng, sizes: &[usize]) -> MatrixBatch<f64> {
    let raw = testgen::dd_batch_of(rng, sizes);
    let mut batch = MatrixBatch::zeros(sizes);
    for i in 0..batch.len() {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    batch
}

fn rhs_for(rng: &mut SmallRng, sizes: &[usize]) -> VectorBatch<f64> {
    let mut rhs = VectorBatch::zeros(sizes);
    for v in rhs.as_mut_slice().iter_mut() {
        *v = rng.gen_range(-4.0..4.0);
    }
    rhs
}

/// Blocks a mixed-precision policy promoted back to native factors.
fn promotions<T: vbatch_core::Scalar>(factors: &FactorizedBatch<T>) -> usize {
    factors.statuses().filter(|s| s.promoted).count()
}

/// Scale rows of block `i` so its condition estimate lands far above
/// any promotion threshold while staying representable in `f32`.
fn poison_conditioning(batch: &mut MatrixBatch<f64>, i: usize) {
    let n = batch.size(i);
    let b = batch.block_mut(i);
    for c in 0..n {
        b[c * n] *= 1e6;
        b[c * n + n - 1] *= 1e-6;
    }
}

fn solve_under(
    backend: &dyn Backend<f64>,
    batch: &MatrixBatch<f64>,
    rhs: &VectorBatch<f64>,
    layout: BatchLayout,
    precision: PrecisionPolicy,
) -> (Vec<f64>, FactorizedBatch<f64>) {
    let plan = BatchPlan::for_method_with_layout::<f64>(batch.sizes(), PlanMethod::Auto, layout)
        .with_precision(precision);
    let mut stats = ExecStats::new();
    let factors = backend.factorize(batch.clone(), &plan, &mut stats);
    let mut x = rhs.clone();
    backend.solve(&factors, &mut x, &mut stats);
    // the prepared (warm-workspace) apply must agree bitwise with the
    // one-shot solve under every precision policy
    let prep = backend.prepare_apply(&factors);
    let mut p = rhs.as_slice().to_vec();
    backend.solve_prepared(&factors, &prep, &mut p, &mut stats);
    assert_eq!(
        x.as_slice(),
        p.as_slice(),
        "{}/{}/{}: prepared apply diverged from one-shot solve",
        backend.name(),
        layout.label(),
        precision.label()
    );
    (x.as_slice().to_vec(), factors)
}

#[test]
fn promotion_never_moves_solutions_beyond_tolerance() {
    // sizes spanning the packed/GH/small-LU/blocked kernels, with one
    // ill-conditioned member the gate must promote
    let sizes = vec![4usize, 4, 4, 4, 12, 20, 20, 34];
    run_cases("precision_metamorphic", 6, |rng, _case| {
        let mut batch = random_batch(rng, &sizes);
        poison_conditioning(&mut batch, 4);
        let rhs = rhs_for(rng, &sizes);
        let backends: [&dyn Backend<f64>; 2] = [&CpuSequential, &CpuSimd];
        for layout in LAYOUTS {
            for backend in backends {
                let (dp, _) = solve_under(backend, &batch, &rhs, layout, PrecisionPolicy::FullDp);
                for policy in POLICIES {
                    let (mixed, factors) = solve_under(backend, &batch, &rhs, layout, policy);
                    let promoting = matches!(policy, PrecisionPolicy::MixedPromote);
                    if promoting {
                        assert_eq!(
                            promotions(&factors),
                            1,
                            "{}/{}: exactly the poisoned block promotes",
                            backend.name(),
                            layout.label()
                        );
                        assert!(factors.status(4).promoted);
                        assert_eq!(factors.status(4).precision, StoragePrecision::Native);
                        assert!(factors.status(4).condest.unwrap() > 724.0);
                    }
                    let mut off = 0usize;
                    for blk in 0..batch.len() {
                        // ForceSp keeps the poisoned block's factors in
                        // storage precision by design; only the
                        // promoting policy owes DP-level agreement there
                        if blk == 4 && !promoting {
                            continue;
                        }
                        let n = batch.size(blk);
                        let scale = rhs.seg(blk).iter().fold(1.0f64, |m, v| m.max(v.abs()));
                        let tol = MIXED_TOL * n as f64 * scale;
                        let s = sizes[..blk].iter().sum::<usize>();
                        for r in 0..n {
                            if (dp[s + r] - mixed[s + r]).abs() > tol {
                                off += 1;
                            }
                        }
                    }
                    assert_eq!(
                        off,
                        0,
                        "{}/{}/{}: {off} rows drifted past tolerance",
                        backend.name(),
                        layout.label(),
                        policy.label()
                    );
                }
            }
        }
    });
}

#[test]
fn force_sp_matches_mixed_promote_bitwise_when_nothing_promotes() {
    let sizes = vec![3usize, 3, 3, 7, 18, 28];
    run_cases("force_sp_vs_mixed_bitwise", 8, |rng, _case| {
        let batch = random_batch(rng, &sizes);
        let rhs = rhs_for(rng, &sizes);
        for layout in LAYOUTS {
            let (sp, sp_f) = solve_under(
                &CpuSequential,
                &batch,
                &rhs,
                layout,
                PrecisionPolicy::ForceSp,
            );
            let (mx, mx_f) = solve_under(
                &CpuSequential,
                &batch,
                &rhs,
                layout,
                PrecisionPolicy::MixedPromote,
            );
            assert_eq!(promotions(&mx_f), 0, "diagonally dominant: no promotions");
            for (a, b) in sp.iter().zip(&mx) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: sp vs mixed", layout.label());
            }
            for (s, m) in sp_f.statuses().zip(mx_f.statuses()) {
                assert_eq!(s.precision, StoragePrecision::Lower);
                assert_eq!(m.precision, StoragePrecision::Lower);
                assert!(!s.promoted && !m.promoted);
            }
        }
    });
}

#[test]
fn promotion_condest_is_cached_and_reused_by_triage() {
    let sizes = vec![5usize, 5, 5];
    let mut rng = SmallRng::seed_from_u64(0x9_e11);
    let mut batch = random_batch(&mut rng, &sizes);
    poison_conditioning(&mut batch, 1);
    let plan =
        BatchPlan::for_method_with_layout::<f64>(&sizes, PlanMethod::Lu, BatchLayout::Blocked)
            .with_health(HealthPolicy::guarded::<f64>())
            .with_precision(PrecisionPolicy::MixedPromote);
    let mut stats = ExecStats::new();
    let factors = CpuSequential.factorize(batch, &plan, &mut stats);
    // the promotion pass estimated every lowered block and cached the
    // estimate; triage consumed the cache, so each status carries one
    assert!(factors.statuses().all(|s| s.condest.is_some()));
    assert_eq!(promotions(&factors), 1);
    assert!(factors.status(1).promoted);
    // the promoted block then failed DP triage too and was recovered in
    // native precision; the well-conditioned neighbours stayed lowered
    assert_eq!(factors.status(1).precision, StoragePrecision::Native);
    for i in [0usize, 2] {
        assert_eq!(factors.status(i).precision, StoragePrecision::Lower);
        assert!(!factors.status(i).promoted);
    }
}

#[test]
fn f32_floor_policies_are_bitwise_noops() {
    // f32 has no lower storage tier: sp/mixed must run the native path
    let n = 6usize;
    let sizes = vec![n; 4];
    let mut batch = MatrixBatch::<f32>::zeros(&sizes);
    for i in 0..4 {
        let b = batch.block_mut(i);
        for c in 0..n {
            for r in 0..n {
                let h = (r * 131 + c * 37 + i * 17 + 3) % 64;
                b[c * n + r] = h as f32 / 32.0 + if r == c { (n + 2) as f32 } else { 0.0 };
            }
        }
    }
    let mut rhs = VectorBatch::<f32>::zeros(&sizes);
    for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
        *v = 1.0 + (i % 5) as f32;
    }
    let reference = {
        let plan = BatchPlan::for_method::<f32>(&sizes, PlanMethod::Lu);
        let mut stats = ExecStats::new();
        let f = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
        let mut x = rhs.clone();
        CpuSequential.solve(&f, &mut x, &mut stats);
        x.as_slice().to_vec()
    };
    for policy in [PrecisionPolicy::MixedPromote, PrecisionPolicy::ForceSp] {
        let plan = BatchPlan::for_method::<f32>(&sizes, PlanMethod::Lu).with_precision(policy);
        let mut stats = ExecStats::new();
        let f = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
        let mut x = rhs.clone();
        CpuSequential.solve(&f, &mut x, &mut stats);
        for (a, b) in x.as_slice().iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "{}: f32 floor", policy.label());
        }
        // everything reports native storage; nothing promotes
        assert!(f
            .statuses()
            .all(|s| s.precision == StoragePrecision::Native && !s.promoted));
    }
}
