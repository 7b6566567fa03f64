//! Golden differential suite: the same randomized variable-size batches
//! run through every (backend × layout) combination, and the results
//! are pinned against each other and against the naive dense LU
//! reference of `vbatch-core`.
//!
//! Contracts locked down here:
//!
//! * both backends — `CpuSequential`, `CpuSimd` — agree **bitwise**
//!   across both layouts: identical pivot sequences and identical
//!   solution bits, because the interleaved lane kernels execute the
//!   exact per-slot operation order of the blocked kernels;
//! * every combination stays within `c · n · eps` of the dense
//!   reference solve (`vbatch_core::solve_system`);
//! * singular blocks degrade to the scalar-Jacobi fallback identically
//!   in every combination, with finite outputs everywhere.

use vbatch_core::{BatchLayout, MatrixBatch, Scalar, VectorBatch};
use vbatch_exec::{
    Backend, BatchPlan, CpuSequential, CpuSimd, ExecStats, FactorizedBatch, HealthPolicy,
    PlanMethod,
};
use vbatch_rt::{run_cases, testgen, SmallRng};

/// Residual agreement bound: `GOLDEN_C · n · eps` relative to the
/// reference solution's magnitude.
const GOLDEN_C: f64 = 256.0;

fn random_batch(rng: &mut SmallRng, max_n: usize, max_count: usize) -> MatrixBatch<f64> {
    // at least two blocks so cross-block effects are always present
    let count = rng.gen_range(2usize..max_count + 1);
    let sizes: Vec<usize> = (0..count)
        .map(|_| rng.gen_range(1usize..max_n + 1))
        .collect();
    let raw = testgen::dd_batch_of(rng, &sizes);
    let mut batch = MatrixBatch::zeros(&sizes);
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

/// The layouts every batch is pushed through. `class_capacity: 2` makes
/// even small random classes take the interleaved path.
const LAYOUTS: [BatchLayout; 2] = [
    BatchLayout::Blocked,
    BatchLayout::Interleaved { class_capacity: 2 },
];

struct Combo {
    label: String,
    factors: FactorizedBatch<f64>,
    solution: Vec<f64>,
    /// The same solve through the prepared (workspace-reuse) apply
    /// path, second pass through the same workspace — must be bitwise
    /// identical to `solution` on every backend.
    prepared: Vec<f64>,
}

fn run_all_combos(
    batch: &MatrixBatch<f64>,
    rhs: &VectorBatch<f64>,
    method: PlanMethod,
    health: HealthPolicy,
) -> Vec<Combo> {
    let mut combos = Vec::new();
    let backends: [&dyn Backend<f64>; 2] = [&CpuSequential, &CpuSimd];
    for layout in LAYOUTS {
        let plan = BatchPlan::for_method_with_layout::<f64>(batch.sizes(), method, layout)
            .with_health(health);
        for backend in backends {
            let mut stats = ExecStats::new();
            let factors = backend.factorize(batch.clone(), &plan, &mut stats);
            let label = format!("{}/{}", backend.name(), layout.label());
            let mut x = rhs.clone();
            backend.solve(&factors, &mut x, &mut stats);
            // prepared apply: run twice through one workspace so the
            // second pass exercises dirty recycled scratch
            let prep = backend.prepare_apply(&factors);
            let mut p1 = rhs.as_slice().to_vec();
            backend.solve_prepared(&factors, &prep, &mut p1, &mut stats);
            let mut p2 = rhs.as_slice().to_vec();
            backend.solve_prepared(&factors, &prep, &mut p2, &mut stats);
            assert_eq!(
                p1, p2,
                "{label}: workspace reuse must be bitwise reproducible"
            );
            combos.push(Combo {
                label,
                factors,
                solution: x.as_slice().to_vec(),
                prepared: p1,
            });
        }
    }
    combos
}

fn assert_matches_dense_reference(batch: &MatrixBatch<f64>, rhs: &VectorBatch<f64>, combo: &Combo) {
    let solved = VectorBatch::from_flat(batch.sizes(), &combo.solution);
    for blk in 0..batch.len() {
        if combo.factors.status(blk).is_fallback() {
            continue;
        }
        let n = batch.size(blk);
        let a = batch.block_as_mat(blk);
        let x_ref = vbatch_core::solve_system(&a, rhs.seg(blk)).expect("reference solve");
        let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let tol = GOLDEN_C * n as f64 * f64::epsilon() * scale;
        for (i, (&got, &want)) in solved.seg(blk).iter().zip(&x_ref).enumerate() {
            assert!(
                (got - want).abs() <= tol,
                "{}: block {blk} row {i}: {got} vs reference {want} (tol {tol:.3e})",
                combo.label
            );
        }
    }
}

#[test]
fn all_backend_layout_combos_agree_on_random_batches() {
    run_cases("golden_backend_layout_agreement", 24, |rng, _case| {
        let batch = random_batch(rng, 12, 24);
        let rhs = rhs_for(rng, batch.sizes());
        for method in [PlanMethod::Lu, PlanMethod::Auto] {
            let combos = run_all_combos(&batch, &rhs, method, HealthPolicy::Off);
            let baseline = &combos[0];

            for combo in &combos {
                // every combination within c·n·eps of the dense reference
                assert_matches_dense_reference(&batch, &rhs, combo);
                // prepared apply == one-shot solve, bitwise, per combo
                assert_eq!(
                    combo.prepared, combo.solution,
                    "{}: prepared apply must match solve bitwise",
                    combo.label
                );
                assert_eq!(
                    combo.factors.fallback_count(),
                    baseline.factors.fallback_count(),
                    "{}",
                    combo.label
                );
                // bitwise-identical solutions and pivots in every
                // combination
                assert_eq!(
                    combo.solution, baseline.solution,
                    "{} vs {} must agree bitwise",
                    combo.label, baseline.label
                );
                for blk in 0..batch.len() {
                    assert_eq!(
                        combo.factors.row_of_step(blk),
                        baseline.factors.row_of_step(blk),
                        "{} block {blk} pivots",
                        combo.label
                    );
                }
            }
        }
    });
}

#[test]
fn singular_blocks_fall_back_identically_in_every_combo() {
    run_cases("golden_singular_fallback", 16, |rng, _case| {
        let mut batch = random_batch(rng, 8, 16);
        let rhs = rhs_for(rng, batch.sizes());
        // make one block with n >= 2 exactly singular (two equal rows)
        let victim = (0..batch.len()).find(|&i| batch.size(i) >= 2);
        let Some(victim) = victim else { return };
        {
            let n = batch.size(victim);
            let block = batch.block_mut(victim);
            for c in 0..n {
                block[c * n + 1] = block[c * n];
            }
        }
        let combos = run_all_combos(&batch, &rhs, PlanMethod::Lu, HealthPolicy::Off);
        let expected_fallbacks = combos[0].factors.fallback_count();
        assert!(expected_fallbacks >= 1);
        for combo in &combos {
            assert_eq!(
                combo.factors.fallback_count(),
                expected_fallbacks,
                "{}",
                combo.label
            );
            assert_eq!(
                combo.prepared, combo.solution,
                "{}: prepared apply must match solve bitwise with fallbacks present",
                combo.label
            );
            assert!(
                combo.factors.status(victim).is_fallback(),
                "{}: victim block must degrade",
                combo.label
            );
            assert!(
                combo.solution.iter().all(|v| v.is_finite()),
                "{}: fallback must keep outputs finite",
                combo.label
            );
            // healthy blocks still match the dense reference
            assert_matches_dense_reference(&batch, &rhs, combo);
        }
        // identical per-block fallback maps in every combination
        for combo in &combos {
            for blk in 0..batch.len() {
                assert_eq!(
                    combo.factors.status(blk).is_fallback(),
                    combos[0].factors.status(blk).is_fallback(),
                    "{} block {blk} fallback map",
                    combo.label
                );
            }
        }
        // every combination stays bitwise-identical with fallbacks present
        for combo in &combos[1..] {
            assert_eq!(combo.solution, combos[0].solution, "{}", combo.label);
        }
    });
}

#[test]
fn prepared_apply_is_bitwise_across_health_policies() {
    run_cases("golden_prepared_health_policies", 12, |rng, _case| {
        let mut batch = random_batch(rng, 10, 16);
        let rhs = rhs_for(rng, batch.sizes());
        // push one block toward ill-conditioning so Guarded triage has
        // something to equilibrate (rows of wildly different scale)
        if let Some(victim) = (0..batch.len()).find(|&i| batch.size(i) >= 3) {
            let n = batch.size(victim);
            let block = batch.block_mut(victim);
            for c in 0..n {
                block[c * n] *= 1e12;
                block[c * n + 1] *= 1e-9;
            }
        }
        for health in [HealthPolicy::Off, HealthPolicy::guarded::<f64>()] {
            let combos = run_all_combos(&batch, &rhs, PlanMethod::Auto, health);
            for combo in &combos {
                assert_eq!(
                    combo.prepared, combo.solution,
                    "{} (health {health:?}): prepared apply must match solve bitwise",
                    combo.label
                );
                assert!(
                    combo.prepared.iter().all(|v| v.is_finite()),
                    "{} (health {health:?}): outputs must stay finite",
                    combo.label
                );
            }
            // every combination agrees bitwise under either policy
            // (equilibrated solves included)
            for combo in &combos[1..] {
                assert_eq!(
                    combo.solution, combos[0].solution,
                    "{} vs {} (health {health:?})",
                    combo.label, combos[0].label
                );
            }
        }
    });
}
