//! SPIKE split-solver property suite.
//!
//! Contracts under test:
//!
//! * **differential** — the truncated SPIKE pass plus iterative
//!   refinement matches the monolithic solve to `c n eps`, for every
//!   backend × layout × precision policy the pipeline supports;
//! * **metamorphic** — the partition count is an implementation detail:
//!   `p ∈ {1, 2, 4, 8}` produce the same answer to tolerance, and
//!   `p = 1` degenerates **bitwise** to the plain batched solve (the
//!   whole-matrix block-Jacobi apply);
//! * **fault tolerance** — seeded singular/NaN partition blocks flow
//!   through the PR-3 triage path (per-block statuses match the
//!   injected map exactly) and the refinement outer loop still
//!   converges with 10% of the partitions corrupted.

use std::sync::Arc;

use vbatch_core::{solve_system, BatchLayout};
use vbatch_exec::{
    expected_health, Backend, CpuSequential, CpuSimd, FaultClass, FaultPlan, HealthPolicy,
    PrecisionPolicy,
};
use vbatch_precond::{BlockJacobi, BlockPreconditioner, PrecondOptions, Preconditioner};
use vbatch_solver::SpikeSolver;
use vbatch_sparse::{BlockPartition, CooMatrix, CsrMatrix, SpikePartition};

fn banded(n: usize, bw: usize, dominance: f64, seed: u64) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, bw, dominance, seed) {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 17 + seed * 13 + 5) % 23) as f64 / 23.0 - 0.4)
        .collect()
}

fn backends() -> Vec<(&'static str, Arc<dyn Backend<f64>>)> {
    vec![
        ("seq", Arc::new(CpuSequential)),
        ("simd", Arc::new(CpuSimd)),
    ]
}

/// SPIKE + refinement vs the dense monolithic solve, swept over every
/// backend, both layouts and all three precision policies. The matrix
/// is diagonally dominant (the truncated variant's home turf) and the
/// refinement loop must reach `1e-10` relative residual everywhere —
/// the acceptance bar — after which the solution must match the
/// monolithic reference to `c n eps` scaled by the solution magnitude.
#[test]
fn spike_matches_monolithic_for_every_backend_layout_policy() {
    let (n, bw, p) = (64, 2, 4);
    let a = banded(n, bw, 2.0, 42);
    let b = rhs(n, 1);
    let xref = solve_system(&a.to_dense(), &b).unwrap();
    let xnorm = xref.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let ctol = 500.0 * n as f64 * f64::EPSILON * xnorm.max(1.0);
    let sp = SpikePartition::uniform(n, p, bw).unwrap();
    for (bname, backend) in backends() {
        for layout in [BatchLayout::Blocked, BatchLayout::interleaved()] {
            for policy in [
                PrecisionPolicy::FullDp,
                PrecisionPolicy::MixedPromote,
                PrecisionPolicy::ForceSp,
            ] {
                let ctx = format!("{bname}/{}/{}", layout.label(), policy.label());
                let m = SpikeSolver::setup(
                    &a,
                    &sp,
                    backend.clone(),
                    PrecondOptions::default()
                        .with_layout(layout)
                        .with_precision(policy),
                )
                .unwrap_or_else(|e| panic!("{ctx}: setup failed: {e}"));
                let out = m.solve_with(&b, 1e-11, 100);
                assert!(
                    out.converged && out.relres <= 1e-10,
                    "{ctx}: relres {} after {} refinements",
                    out.relres,
                    out.refinements
                );
                for i in 0..n {
                    assert!(
                        (out.x[i] - xref[i]).abs() <= ctol,
                        "{ctx}: x[{i}] = {} vs {} (tol {ctol:.3e})",
                        out.x[i],
                        xref[i]
                    );
                }
            }
        }
    }
}

/// Metamorphic sweep over the partition count: the split is an
/// implementation detail, so every feasible `p` must agree with the
/// dense reference (and hence with every other `p`) to tolerance.
#[test]
fn partition_counts_agree_to_tolerance() {
    let (n, bw) = (128, 2);
    let a = banded(n, bw, 1.5, 7);
    let b = rhs(n, 3);
    let xref = solve_system(&a.to_dense(), &b).unwrap();
    let xnorm = xref.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let tol = 1e-9 * xnorm.max(1.0);
    let backend: Arc<dyn Backend<f64>> = Arc::new(CpuSequential);
    for p in [1usize, 2, 4, 8] {
        let sp = SpikePartition::uniform(n, p, bw).unwrap();
        let m = SpikeSolver::setup(&a, &sp, backend.clone(), PrecondOptions::default()).unwrap();
        let out = m.solve_with(&b, 1e-11, 100);
        assert!(out.converged, "p={p}: relres {}", out.relres);
        for i in 0..n {
            assert!(
                (out.x[i] - xref[i]).abs() <= tol,
                "p={p}: x[{i}] = {} vs {}",
                out.x[i],
                xref[i]
            );
        }
    }
}

/// With a single partition there are no interfaces, no reduced system
/// and no spikes: the SPIKE pass is exactly the plain batched solve of
/// the whole matrix as one block. Bitwise exactly — the same
/// extraction values, the same plan construction and the same prepared
/// apply as whole-matrix block-Jacobi.
#[test]
fn single_partition_degenerates_to_plain_batched_solve_bitwise() {
    let n = 48;
    let a = banded(n, 3, 1.5, 11);
    let b = rhs(n, 5);
    let backend: Arc<dyn Backend<f64>> = Arc::new(CpuSequential);

    let sp = SpikePartition::uniform(n, 1, 3).unwrap();
    let m = SpikeSolver::setup(&a, &sp, backend.clone(), PrecondOptions::default()).unwrap();
    // max_refine = 0 isolates the single SPIKE pass
    let spike_x = m.solve_with(&b, 1e-30, 0).x;

    let whole = BlockPartition::from_ptr(vec![0, n]);
    let bj = BlockJacobi::setup_opts(&a, &whole, backend, PrecondOptions::default()).unwrap();
    let plain_x = bj.apply(&b);

    assert_eq!(spike_x, plain_x, "p = 1 must be the plain batched solve");
}

/// One SPIKE application (the preconditioner view) must equal the
/// direct solver's initial pass: apply_inplace and solve_with(.., 0)
/// share the same warm path.
#[test]
fn preconditioner_apply_equals_first_solver_pass() {
    let n = 96;
    let a = banded(n, 2, 2.0, 19);
    let b = rhs(n, 7);
    let sp = SpikePartition::uniform(n, 6, 2).unwrap();
    let m =
        SpikeSolver::setup(&a, &sp, Arc::new(CpuSequential), PrecondOptions::default()).unwrap();
    let pass = m.solve_with(&b, 1e-30, 0).x;
    let mut applied = b.clone();
    m.apply_inplace(&mut applied);
    assert_eq!(pass, applied);
}

/// Seeded singular / NaN partition blocks flow through the PR-3 triage
/// path: the per-partition statuses must match the injected fault map
/// exactly, and the refinement outer loop must still converge to
/// `1e-10` with 10% of the partitions corrupted (their factors degrade
/// to sanitized fallbacks; the strongly dominant monolithic matrix
/// keeps the refinement iteration contractive).
#[test]
fn fault_injection_triages_exactly_and_refinement_still_converges() {
    let (n, bw, p) = (240, 2, 20);
    let a = banded(n, bw, 5.0, 23);
    let b = rhs(n, 9);
    let plan = FaultPlan::new(77)
        .with(FaultClass::NanEntry, 0.05)
        .with(FaultClass::ZeroRow, 0.05);
    let sp = SpikePartition::uniform(n, p, bw).unwrap();
    let m = SpikeSolver::setup(
        &a,
        &sp,
        Arc::new(CpuSequential),
        PrecondOptions::default()
            .with_health(HealthPolicy::guarded::<f64>())
            .with_fault(plan.clone()),
    )
    .unwrap();

    let map = plan.assign(p);
    let faulted = map.iter().filter(|f| f.is_some()).count();
    assert!(
        faulted >= 1 && faulted * 10 <= p * 2,
        "expected ~10% of {p} partitions faulted, got {faulted}"
    );
    for (j, status) in m.statuses().enumerate() {
        assert_eq!(
            status.health,
            expected_health(map[j]),
            "partition {j}: injected {:?}, status {:?}",
            map[j],
            status
        );
    }

    let out = m.solve_with(&b, 1e-10, 400);
    assert!(
        out.converged,
        "refinement must absorb {faulted} degraded partitions \
         (relres {} after {} refinements)",
        out.relres, out.refinements
    );
}

/// A clean run under the same guarded policy reports every partition
/// healthy — the triage assertions above really are driven by the
/// injected faults.
#[test]
fn clean_guarded_setup_reports_all_partitions_healthy() {
    let (n, bw, p) = (120, 2, 10);
    let a = banded(n, bw, 5.0, 23);
    let sp = SpikePartition::uniform(n, p, bw).unwrap();
    let m = SpikeSolver::setup(
        &a,
        &sp,
        Arc::new(CpuSequential),
        PrecondOptions::default().with_health(HealthPolicy::guarded::<f64>()),
    )
    .unwrap();
    assert_eq!(m.fallback_blocks, 0);
    for status in m.statuses() {
        assert_eq!(status.health, expected_health(None));
    }
}

/// The trait integration: SPIKE drives an IDR(4) solve through the
/// generic driver handle on a banded system, converging like any other
/// block preconditioner.
#[test]
fn spike_preconditions_idr_through_the_driver_handle() {
    use vbatch_solver::{IdrSolver, SolveParams, StopReason};
    let (n, bw, p) = (128, 2, 8);
    let a = banded(n, bw, 1.5, 31);
    let b = rhs(n, 11);
    let sp = SpikePartition::uniform(n, p, bw).unwrap();
    let mut solver = IdrSolver::<f64, SpikeSolver<f64>>::setup_opts(
        &a,
        4,
        sp.part(),
        Arc::new(CpuSequential),
        PrecondOptions::default(),
        &SolveParams::default(),
    )
    .unwrap();
    assert_eq!(solver.solve(&a, &b).reason, StopReason::Converged);
    assert!(solver.precond().label().starts_with("spike(p=8"));
}
