//! Differential fault suite: deterministic fault injection pushed
//! through every (backend × layout) combination and up the full
//! preconditioned-solve stack.
//!
//! Contracts locked down here:
//!
//! * under guarded triage, the per-block health reported after
//!   factorization matches the injected fault map **exactly** on every
//!   backend and layout — NaN/Inf blocks report `NonFinite`, zeroed
//!   rows report `Singular`, eps-scaled columns report
//!   `IllConditioned`, untouched blocks report `Healthy`;
//! * non-finite and singular victims degrade through the scalar-Jacobi
//!   escalation chain while eps-column victims are equilibrated and
//!   refactorized (not degraded);
//! * with 10% of blocks corrupted (mixed classes), block-Jacobi +
//!   IDR(4) still converges to the paper's `1e-6` on every backend;
//! * a corrupted right-hand side ends the solve with
//!   `StopReason::NonFinite` immediately — never by burning the
//!   10,000-iteration budget.

use std::sync::Arc;
use vbatch_core::{BatchLayout, MatrixBatch, VectorBatch};
use vbatch_exec::{
    apply_fault, expected_health, inject_batch, inject_rhs, Backend, BatchPlan, BlockHealth,
    CpuSequential, CpuSimd, ExecStats, FaultClass, FaultPlan, HealthPolicy, PlanMethod,
    RecoveryStep,
};
use vbatch_precond::{BjMethod, BlockJacobi, BlockPreconditioner, PrecondOptions};
use vbatch_solver::{idr, IdrSolver, SolveParams, StopReason};
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::BlockPartition;

const LAYOUTS: [BatchLayout; 2] = [
    BatchLayout::Blocked,
    BatchLayout::Interleaved { class_capacity: 2 },
];

fn backends() -> Vec<Arc<dyn Backend<f64>>> {
    vec![Arc::new(CpuSequential), Arc::new(CpuSimd)]
}

/// A uniform batch of well-conditioned diagonally dominant blocks
/// (deterministic: seeded from the batch shape).
fn healthy_batch(count: usize, n: usize) -> MatrixBatch<f64> {
    let mut rng = vbatch_rt::SmallRng::seed_from_u64((count * 131 + n) as u64);
    let raw = vbatch_rt::testgen::uniform_dd_batch(&mut rng, n, count);
    let mut batch = MatrixBatch::zeros(&raw.sizes);
    for i in 0..count {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    batch
}

#[test]
fn statuses_match_injected_fault_map_exactly() {
    let classes = [
        FaultClass::NanEntry,
        FaultClass::InfEntry,
        FaultClass::ZeroRow,
        FaultClass::EpsColumn,
    ];
    for (ci, &class) in classes.iter().enumerate() {
        let plan = FaultPlan::new(90 + ci as u64).with(class, 0.2);
        for backend in backends() {
            for layout in LAYOUTS {
                let mut blocks = healthy_batch(20, 6);
                let map = inject_batch(&mut blocks, &plan);
                assert_eq!(map.iter().filter(|f| f.is_some()).count(), 4);
                let bplan = BatchPlan::for_method_with_layout::<f64>(
                    blocks.sizes(),
                    PlanMethod::SmallLu,
                    layout,
                )
                .with_health(HealthPolicy::guarded::<f64>());
                let factors = backend.factorize(blocks, &bplan, &mut ExecStats::new());
                for (i, fault) in map.iter().enumerate() {
                    let status = &factors.status[i];
                    let ctx = format!(
                        "{:?} on {}/{}, block {i}",
                        class,
                        backend.name(),
                        layout.label()
                    );
                    assert_eq!(status.health, expected_health(*fault), "{ctx}");
                    match expected_health(*fault) {
                        BlockHealth::Healthy => {
                            assert!(!status.is_fallback(), "{ctx}: healthy block degraded")
                        }
                        BlockHealth::NonFinite | BlockHealth::Singular => {
                            assert!(status.is_fallback(), "{ctx}: victim must degrade");
                            assert!(status.error.is_some(), "{ctx}: error must be recorded");
                        }
                        BlockHealth::IllConditioned => {
                            assert!(
                                !status.is_fallback(),
                                "{ctx}: eps-column victim must be recovered, not degraded"
                            );
                            assert!(
                                status.recovery.contains(&RecoveryStep::Equilibrated),
                                "{ctx}: recovery chain {:?}",
                                status.recovery
                            );
                        }
                    }
                }
            }
        }
    }
}

/// 10% mixed faults (one victim per class over 40 blocks): the guarded
/// preconditioner degrades gracefully and IDR(4) still reaches `1e-6`.
#[test]
fn mixed_faults_still_converge_through_block_jacobi_idr() {
    let a = laplace_2d::<f64>(16, 10);
    let part = BlockPartition::uniform(160, 4); // 40 blocks
    let b = vec![1.0; 160];
    let plan = FaultPlan::new(7)
        .with(FaultClass::NanEntry, 0.025)
        .with(FaultClass::InfEntry, 0.025)
        .with(FaultClass::ZeroRow, 0.025)
        .with(FaultClass::EpsColumn, 0.025);
    for backend in backends() {
        let name = backend.name();
        for layout in LAYOUTS {
            let m = BlockJacobi::setup_opts(
                &a,
                &part,
                backend.clone(),
                PrecondOptions::guarded::<f64>()
                    .with_method(BjMethod::SmallLu)
                    .with_layout(layout)
                    .with_fault(plan.clone()),
            )
            .unwrap();
            let map = plan.assign(m.partition().len());
            let victims = map.iter().filter(|f| f.is_some()).count();
            assert_eq!(victims, 4, "10% of 40 blocks");
            for (i, fault) in map.iter().enumerate() {
                assert_eq!(
                    m.statuses()[i].health,
                    expected_health(*fault),
                    "{name}/{} block {i}",
                    layout.label()
                );
            }
            let r = idr(&a, &b, 4, &m, &SolveParams::default());
            assert_eq!(
                r.reason,
                StopReason::Converged,
                "{name}/{}: {:?} relres {}",
                layout.label(),
                r.reason,
                r.final_relres
            );
            assert!(r.final_relres < 1e-6, "{name}: {}", r.final_relres);
        }
    }
}

/// Faults injected *inside a SIMD lane group* poison only their own
/// slot: the whole group runs through the lane elimination together,
/// so a NaN/Inf/singular victim shares vector
/// registers with up to `MAX_LANE_WIDTH − 1` healthy lane-mates. Those
/// mates must come out **bitwise identical** to a fault-free run —
/// factors, pivots, and solve outputs alike — and the reported status
/// map must match `expected_health` exactly.
#[test]
fn lane_group_faults_poison_only_their_own_slot() {
    // one interleaved class of 20 slots at n = 6: lane groups
    // [0..8), [8..16) and a remainder tail [16..20) at width 8
    // (narrower widths just re-chunk; the victim slots below land
    // inside a multi-lane group at every supported width >= 2)
    const COUNT: usize = 20;
    const N: usize = 6;
    let victims: [(usize, FaultClass); 4] = [
        (3, FaultClass::NanEntry), // group 0, mates 0..8
        (4, FaultClass::InfEntry), // group 0: two victims in one group
        (9, FaultClass::ZeroRow),  // group 1
        (17, FaultClass::ZeroRow), // remainder tail
    ];
    let flat_rhs: Vec<f64> = (0..COUNT * N).map(|i| 0.5 + (i % 7) as f64).collect();
    let bplan = BatchPlan::for_method_with_layout::<f64>(
        &[N; COUNT],
        PlanMethod::SmallLu,
        BatchLayout::Interleaved { class_capacity: 2 },
    )
    .with_health(HealthPolicy::guarded::<f64>());

    let clean = healthy_batch(COUNT, N);
    let mut faulty = clean.clone();
    let mut map: Vec<Option<FaultClass>> = vec![None; COUNT];
    for &(slot, class) in &victims {
        apply_fault(N, faulty.block_mut(slot), class);
        map[slot] = Some(class);
    }

    let backend = CpuSimd;
    let mut s_clean = ExecStats::new();
    let f_clean = backend.factorize(clean, &bplan, &mut s_clean);
    let mut r_clean = VectorBatch::from_flat(&[N; COUNT], &flat_rhs);
    backend.solve(&f_clean, &mut r_clean, &mut s_clean);

    let mut s_faulty = ExecStats::new();
    let f_faulty = backend.factorize(faulty, &bplan, &mut s_faulty);
    let mut r_faulty = VectorBatch::from_flat(&[N; COUNT], &flat_rhs);
    backend.solve(&f_faulty, &mut r_faulty, &mut s_faulty);

    for blk in 0..COUNT {
        let want = expected_health(map[blk]);
        assert_eq!(f_faulty.status[blk].health, want, "block {blk}");
        if map[blk].is_some() {
            assert!(
                f_faulty.status[blk].is_fallback(),
                "victim {blk} must degrade"
            );
            assert!(
                r_faulty.seg(blk).iter().all(|v| v.is_finite()),
                "victim {blk}: fallback output must stay finite"
            );
        } else {
            // healthy lane-mates: pivots and solve bits untouched by
            // the poisoned slots sharing their vector registers
            assert!(!f_faulty.status[blk].is_fallback(), "block {blk}");
            assert_eq!(
                f_faulty.row_of_step(blk),
                f_clean.row_of_step(blk),
                "block {blk}: pivot sequence perturbed by a lane-mate fault"
            );
            let got = r_faulty.seg(blk);
            let want = r_clean.seg(blk);
            for (i, (a, b)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "block {blk} row {i}: solve bits perturbed by a lane-mate fault"
                );
            }
        }
    }
}

/// A NaN right-hand side must end the solve as `NonFinite` without
/// touching the iteration budget — never as `MaxIterations`.
#[test]
fn rhs_faults_are_reported_not_iterated_on() {
    let a = laplace_2d::<f64>(8, 8);
    let part = BlockPartition::uniform(64, 4);
    let sizes = part.sizes();
    let mut rhs = VectorBatch::<f64>::from_flat(&sizes, &[1.0; 64]);
    let mut assignment = vec![None; part.len()];
    assignment[3] = Some(FaultClass::RhsNan);
    inject_rhs(&mut rhs, &assignment);
    assert!(rhs.seg(3)[0].is_nan());

    let m = BlockJacobi::setup_opts(
        &a,
        &part,
        Arc::new(CpuSequential) as Arc<dyn Backend<f64>>,
        PrecondOptions::guarded::<f64>().with_method(BjMethod::SmallLu),
    )
    .unwrap();
    // the matrix faults are absent: every block is healthy
    assert!(m
        .statuses()
        .iter()
        .all(|s| s.health == BlockHealth::Healthy));

    let r = idr(&a, rhs.as_slice(), 4, &m, &SolveParams::default());
    assert_eq!(r.reason, StopReason::NonFinite);
    assert_ne!(r.reason, StopReason::MaxIterations);
    assert_eq!(r.iterations, 0, "no budget burned on a NaN RHS");
}

/// The robust fallback chain in **single precision** (the rest of this
/// suite is f64-only): a NaN right-hand side is reported as `NonFinite`
/// with zero restarts — corrupted data cannot be repaired by solving
/// the (equally corrupted) residual system — and the policy still
/// exhausts the GMRES fallback before giving up.
#[test]
fn robust_policy_f32_nan_rhs_exhausts_fallback_without_restarting() {
    let a = laplace_2d::<f32>(6, 6);
    let mut b = vec![1.0f32; 36];
    b[0] = f32::NAN;
    let part = BlockPartition::uniform(36, 4);
    let r = IdrSolver::<f32, BlockJacobi<f32>>::setup_opts(
        &a,
        4,
        &part,
        Arc::new(CpuSequential),
        PrecondOptions::default().with_method(BjMethod::SmallLu),
        &SolveParams::default(),
    )
    .unwrap()
    .solve_robust(&a, &b);
    assert_eq!(r.result.reason, StopReason::NonFinite);
    assert_eq!(r.restarts, 0, "a NaN RHS cannot be restarted");
    assert!(r.used_gmres, "policy exhausts the fallback chain");
}

/// Single-precision stagnation drives the full escalation chain. The
/// system is an *indefinite* shifted Laplacian (`L − 2I`, the shift
/// inside the spectrum): block-Jacobi IDR(4) cannot make steady
/// progress on it in f32, so the stagnation guard trips, the policy
/// restarts IDR from the current iterate, and when the restart
/// stagnates too it hands the system to GMRES. The final iterate must
/// stay finite and carry f32-achievable accuracy even though the
/// formal `1e-12` target was never met.
#[test]
fn robust_policy_f32_stagnation_forces_restart_then_gmres() {
    let mut a = laplace_2d::<f32>(10, 10);
    let n = a.nrows();
    for row in 0..n {
        let (lo, hi) = (a.row_ptr()[row], a.row_ptr()[row + 1]);
        for k in lo..hi {
            if a.col_idx()[k] == row {
                a.values_mut()[k] -= 2.0;
            }
        }
    }
    let b = vec![1.0f32; n];
    let part = BlockPartition::uniform(n, 4);
    let mut params = SolveParams::default()
        .with_tol(1e-12)
        .with_stagnation_window(15)
        .with_max_iters(2000);
    // on the indefinite system the residual wanders; only a >=1%
    // improvement of the best norm counts as progress
    params.stagnation_rtol = 1e-2;
    let r = IdrSolver::<f32, BlockJacobi<f32>>::setup_opts(
        &a,
        4,
        &part,
        Arc::new(CpuSequential),
        PrecondOptions::default().with_method(BjMethod::SmallLu),
        &params,
    )
    .unwrap()
    .solve_robust(&a, &b);
    assert_eq!(
        r.restarts, 1,
        "restart budget spent (reason {}, iters {}, relres {})",
        r.result.reason, r.result.iterations, r.result.final_relres
    );
    assert!(r.used_gmres, "restarts alone cannot beat the f32 floor");
    assert!(
        r.result.x.iter().all(|v| v.is_finite()),
        "escalation must never corrupt the iterate"
    );
    assert!(
        r.result.final_relres < 1e-4,
        "f32-achievable accuracy retained: relres {}",
        r.result.final_relres
    );
    assert_ne!(
        r.result.reason,
        StopReason::Converged,
        "1e-12 is not reachable in single precision"
    );
}
