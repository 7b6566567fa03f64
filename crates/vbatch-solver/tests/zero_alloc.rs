//! Steady-state zero-allocation proof: with the counting allocator
//! installed as `#[global_allocator]`, a warm block-Jacobi + IDR(4)
//! iteration on `CpuSequential` touches the heap exactly zero times —
//! and so does one on the pooled `CpuSimd`.
//!
//! Two layers of evidence:
//!
//! * the prepared preconditioner apply allocates nothing at all after
//!   warm-up (measured around a bare `apply_inplace` call);
//! * extending a warm solve by extra iterations costs zero additional
//!   allocations — i.e. everything a solve allocates is per-solve
//!   setup/teardown (`SolveResult`, final true-residual check), never
//!   per-iteration.
//!
//! The setup side has budgets too: a batch whose factors can be built
//! in its own value array must not be copied
//! (`factorize_in_the_storage_given_allocates_no_second_copy`), a clean
//! interleaved block costs no per-block record
//! (`a_clean_interleaved_block_costs_under_96_bytes`), and a warm serve
//! flush stays inside its allocation count
//! (`a_warm_serve_flush_stays_inside_its_allocation_budget`).
//!
//! Every window reads the *enrolled* counter: the test's own thread
//! and the pool shares it submits, not the harness threads that report
//! and start tests beside it. Every test still holds [`serial`] for its
//! whole body, because the pool is shared: a share runs under the
//! enrolment of whoever submitted its job.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vbatch_core::MatrixBatch;
use vbatch_exec::{
    Backend, BatchPlan, CpuSequential, CpuSimd, ExecStats, HealthPolicy, PlanMethod,
};
use vbatch_precond::{BlockIlu0, BlockJacobi, BlockPreconditioner, PrecondOptions, Preconditioner};
use vbatch_rt::alloc_guard::{enrol, Enrolment};
use vbatch_rt::CountingAlloc;
use vbatch_solver::{IdrSolver, SolveParams, StopReason};
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::{BlockPartition, CsrMatrix};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static SERIAL: Mutex<()> = Mutex::new(());

/// Exclusive use of the pool, with this thread enrolled in the
/// allocation counter. A test that failed while holding the lock
/// poisons it; the `()` inside cannot be left invalid, so the remaining
/// tests recover the guard and still run.
fn serial() -> (MutexGuard<'static, ()>, Enrolment) {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // With tracing compiled in, a thread's first span builds its event
    // ring — inside whatever window is being measured, unless this
    // thread and the pool's workers have theirs by now.
    vbatch_rt::trace::reserve_pool_rings(0);
    (guard, enrol())
}

fn backend() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSequential)
}

fn simd_backend() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSimd)
}

fn small_lu() -> PrecondOptions {
    PrecondOptions::default().with_method(PlanMethod::Lu)
}

fn bj(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    backend: Arc<dyn Backend<f64>>,
) -> BlockJacobi<f64> {
    BlockJacobi::setup_opts(a, part, backend, small_lu()).unwrap()
}

fn idr_bj(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    backend: Arc<dyn Backend<f64>>,
    params: &SolveParams,
) -> IdrSolver<f64, BlockJacobi<f64>> {
    IdrSolver::setup_opts(a, 4, part, backend, small_lu(), params).unwrap()
}

#[test]
fn warm_prepared_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = bj(&a, &part, backend());
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    // warm-up: first apply may fault in lazy state
    m.apply_inplace(&mut v);
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm prepared apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// The steady-state guarantee must hold **with tracing active**: trace
/// rings are pre-sized at `prepare_apply` / workspace-seed time, so a
/// warm apply records its spans without touching the heap. Compiled
/// with the `trace` feature this proves instrumentation costs zero
/// allocations; compiled without it, it degenerates to the plain
/// zero-alloc check plus the guarantee that the event counter stays 0.
#[test]
fn warm_apply_with_tracing_enabled_allocates_nothing() {
    let _serial = serial();
    vbatch_rt::trace::set_enabled(true);
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = bj(&a, &part, backend());
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up (ring already reserved at setup)
    let ev0 = vbatch_rt::trace::thread_events_written();
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    let ev1 = vbatch_rt::trace::thread_events_written();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm traced apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    if vbatch_rt::trace::enabled() {
        assert!(
            ev1 > ev0,
            "tracing is enabled but the measured applies recorded no events"
        );
        assert_eq!(
            vbatch_rt::trace::dropped(),
            0,
            "pre-sized ring dropped events"
        );
    } else {
        assert_eq!(ev1, 0, "trace feature off: the event counter must stay 0");
    }
    assert!(v.iter().all(|x| x.is_finite()));
}

/// The guarantee extends to block-ILU(0): a warm apply runs two
/// level-scheduled triangular sweeps plus the prepared diagonal solve —
/// the level/preconditioner histograms are pre-warmed at setup, so the
/// whole three-stage apply touches the heap zero times.
#[test]
fn warm_bilu_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = BlockIlu0::setup_opts(
        &a,
        &part,
        backend(),
        PrecondOptions::default().with_method(PlanMethod::Lu),
    )
    .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm block-ILU(0) apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// And to the full Krylov loop over block-ILU(0): extra warm IDR
/// iterations through the generic [`IdrSolver`] handle cost zero
/// additional allocations, exactly as for block-Jacobi.
#[test]
fn warm_bilu_idr_iterations_allocate_nothing() {
    let _serial = serial();
    // 48x48 grid: block-ILU(0) needs ~25 IDR(4) iterations here, so
    // both capped runs below stop on MaxIterations
    let a = laplace_2d::<f64>(48, 48);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);
    let opts = PrecondOptions::default().with_method(PlanMethod::Lu);

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(20);

    let mut handle =
        IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(&a, 4, &part, backend(), opts.clone(), &short)
            .unwrap();
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.enrolled_snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.enrolled_snapshot().allocs_since(&s0);

    let mut handle_long =
        IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(&a, 4, &part, backend(), opts, &long).unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.enrolled_snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.enrolled_snapshot().allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm block-ILU(0) iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// `CpuSimd` honours the same contract: a warm block-Jacobi apply —
/// which routes the interleaved classes through the lane TRSV out of
/// the prepared scratch slab — allocates exactly zero times. The
/// default layout interleaves the uniform `n = 8` classes, so this
/// measures the lane kernels, not the per-block path.
#[test]
fn warm_simd_prepared_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = bj(&a, &part, simd_backend());
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm cpu-simd prepared apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// Same proof over block-ILU(0) on `CpuSimd`: triangular sweeps plus
/// the SIMD diagonal solve, zero heap traffic once warm.
#[test]
fn warm_simd_bilu_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = BlockIlu0::setup_opts(
        &a,
        &part,
        simd_backend(),
        PrecondOptions::default().with_method(PlanMethod::Lu),
    )
    .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm cpu-simd block-ILU(0) apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// Differential proof on `CpuSimd`: extending a warm IDR(4) +
/// block-Jacobi solve by extra iterations costs zero additional
/// allocations, so the per-iteration SIMD apply path is heap-free.
#[test]
fn warm_simd_idr_iterations_allocate_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle = idr_bj(&a, &part, simd_backend(), &short);
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.enrolled_snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.enrolled_snapshot().allocs_since(&s0);

    let mut handle_long = idr_bj(&a, &part, simd_backend(), &long);
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.enrolled_snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.enrolled_snapshot().allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm cpu-simd iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The split apply reads zero too: through the persistent pool a
/// parallel apply allocates nothing. 64 × 64 grid: 512 blocks of order
/// 8 are 32 768 factor elements, so the apply really is split over the
/// pool's threads.
#[test]
fn warm_pooled_prepared_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(64, 64);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = bj(&a, &part, simd_backend());
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up: starts the pool
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm pooled prepared apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// And over the whole Krylov loop on `CpuSimd`, on a system whose SpMV
/// (20 224 entries) and apply both go through the pool on every
/// iteration: the extra warm iterations cost zero allocations.
#[test]
fn warm_pooled_idr_iterations_allocate_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(64, 64);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle = idr_bj(&a, &part, simd_backend(), &short);
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.enrolled_snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.enrolled_snapshot().allocs_since(&s0);

    let mut handle_long = idr_bj(&a, &part, simd_backend(), &long);
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.enrolled_snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.enrolled_snapshot().allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm pooled iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The zero-allocation contract survives the precision-policy split: a
/// warm mixed-storage apply runs the widening triangular solves plus
/// one refinement step against the retained DP block, all through
/// caller-provided scratch sized at `prepare_apply` time. The default
/// layout interleaves the uniform `n = 8` classes, so this measures the
/// lowered interleaved path, not just blocked factors.
#[test]
fn warm_mixed_precision_apply_allocates_nothing() {
    let _serial = serial();
    use vbatch_exec::PrecisionPolicy;
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    for layout in [
        vbatch_core::BatchLayout::Blocked,
        vbatch_core::BatchLayout::interleaved(),
    ] {
        for policy in [PrecisionPolicy::MixedPromote, PrecisionPolicy::ForceSp] {
            let m = BlockJacobi::setup_opts(
                &a,
                &part,
                backend(),
                PrecondOptions::default()
                    .with_method(PlanMethod::Lu)
                    .with_layout(layout)
                    .with_precision(policy),
            )
            .unwrap();
            let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            m.apply_inplace(&mut v); // warm-up
            let before = ALLOC.enrolled_snapshot();
            m.apply_inplace(&mut v);
            m.apply_inplace(&mut v);
            let after = ALLOC.enrolled_snapshot();
            assert_eq!(
                after.allocs_since(&before),
                0,
                "warm {}/{} apply must not allocate ({} bytes leaked in)",
                layout.label(),
                policy.label(),
                after.bytes_since(&before)
            );
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}

/// Differential proof for the mixed policy over the full Krylov loop:
/// extra warm IDR(4) iterations through lowered-storage block-Jacobi
/// factors cost zero additional allocations.
#[test]
fn warm_mixed_idr_iterations_allocate_nothing() {
    let _serial = serial();
    use vbatch_exec::PrecisionPolicy;
    let a = laplace_2d::<f64>(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);
    let opts = PrecondOptions::default()
        .with_method(PlanMethod::Lu)
        .with_precision(PrecisionPolicy::MixedPromote);

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle = IdrSolver::<f64, BlockJacobi<f64>>::setup_opts(
        &a,
        4,
        &part,
        backend(),
        opts.clone(),
        &short,
    )
    .unwrap();
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.enrolled_snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.enrolled_snapshot().allocs_since(&s0);

    let mut handle_long =
        IdrSolver::<f64, BlockJacobi<f64>>::setup_opts(&a, 4, &part, backend(), opts, &long)
            .unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.enrolled_snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.enrolled_snapshot().allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm mixed-precision iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The SPIKE apply path honours the same contract: a warm truncated
/// SPIKE pass — prepared partition solve, interface gather, prepared
/// reduced solve, spike GEMV recovery — touches the heap exactly zero
/// times (the interface workspace is sized at setup).
#[test]
fn warm_spike_apply_allocates_nothing() {
    let _serial = serial();
    use vbatch_sparse::{CooMatrix, SpikePartition};
    let n = 96;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, 2, 2.0, 13) {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    let sp = SpikePartition::uniform(n, 6, 2).unwrap();
    let m =
        vbatch_solver::SpikeSolver::setup(&a, &sp, backend(), PrecondOptions::default()).unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm SPIKE apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// And with tracing active: the SPIKE apply records its spans through
/// pre-sized rings without heap traffic, exactly like block-Jacobi.
#[test]
fn warm_spike_apply_with_tracing_enabled_allocates_nothing() {
    let _serial = serial();
    use vbatch_sparse::{CooMatrix, SpikePartition};
    vbatch_rt::trace::set_enabled(true);
    let n = 96;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, 2, 2.0, 13) {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    let sp = SpikePartition::uniform(n, 6, 2).unwrap();
    let m =
        vbatch_solver::SpikeSolver::setup(&a, &sp, backend(), PrecondOptions::default()).unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up (rings reserved at setup)
    let before = ALLOC.enrolled_snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm traced SPIKE apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

#[test]
fn warm_idr_iterations_allocate_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);

    // capped solves: both runs stop on MaxIterations, so they execute
    // identical per-solve setup/teardown and differ only in how many
    // warm iterations they run
    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle = idr_bj(&a, &part, backend(), &short);
    // warm-up solve grows every pool to its high-water size
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.enrolled_snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.enrolled_snapshot().allocs_since(&s0);

    let mut handle_long = idr_bj(&a, &part, backend(), &long);
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.enrolled_snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.enrolled_snapshot().allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The setup-side budget: a populous uniform batch under native storage
/// and health `Off` is factorized in the value array it arrives in, so
/// the call allocates pivots, per-block tables and one staging chunk
/// per worker — not a second copy of the batch. Under `Guarded` the
/// triage pass still reads the originals, so the factors need a slab of
/// their own. 512 blocks of order 16 per worker thread (eight chunks
/// each), so the staging share of the budget is the same on every host.
#[test]
fn factorize_in_the_storage_given_allocates_no_second_copy() {
    let _serial = serial();
    let n = 16;
    for (backend, workers) in [
        (backend(), 1),
        (simd_backend(), vbatch_rt::par::num_threads()),
    ] {
        let count = 512 * workers;
        let batch = MatrixBatch::<f64>::uniform_from_fn(count, n, |b, i, j| {
            let h = (i * 131 + j * 37 + b * 17) % 1024;
            h as f64 / 1024.0 - 0.5 + if i == j { n as f64 } else { 0.0 }
        });
        let array_bytes = (batch.total_elements() * std::mem::size_of::<f64>()) as u64;
        let plan = BatchPlan::auto::<f64>(batch.sizes());
        let guarded = plan.clone().with_health(HealthPolicy::guarded::<f64>());
        let bytes_of = |plan: &BatchPlan| {
            let input = batch.clone();
            let mut stats = ExecStats::new();
            let before = ALLOC.enrolled_snapshot();
            let factors = backend.factorize(input, plan, &mut stats);
            let bytes = ALLOC.enrolled_snapshot().bytes_since(&before);
            assert_eq!(factors.fallback_count(), 0);
            assert_eq!(stats.layout_histogram()["interleaved"], count as u64);
            bytes
        };
        let in_place = bytes_of(&plan);
        assert!(
            in_place < array_bytes / 2,
            "{}: {in_place} B allocated to factorize a {array_bytes} B batch in place",
            backend.name()
        );
        let gathered = bytes_of(&guarded);
        assert!(
            gathered >= array_bytes,
            "{}: guarded triage reads the originals, yet only {gathered} B were allocated",
            backend.name()
        );
    }
}

/// The factor store's cost per block: a clean member of an interleaved
/// class is its slot in the class slab, so factorizing 4 096 order-4
/// blocks in place allocates, beyond the pivot array, only the block
/// orders, the slot index, the class member lists and the staging
/// chunk — under 96 B per block.
#[test]
fn a_clean_interleaved_block_costs_under_96_bytes() {
    let _serial = serial();
    let (n, count) = (4, 4096);
    let batch = MatrixBatch::<f64>::uniform_from_fn(count, n, |b, i, j| {
        let h = (i * 131 + j * 37 + b * 17) % 1024;
        h as f64 / 1024.0 - 0.5 + if i == j { n as f64 } else { 0.0 }
    });
    let plan = BatchPlan::auto::<f64>(batch.sizes());
    let mut stats = ExecStats::new();
    let before = ALLOC.enrolled_snapshot();
    let factors = CpuSequential.factorize(batch, &plan, &mut stats);
    let bytes = ALLOC.enrolled_snapshot().bytes_since(&before);
    assert_eq!(factors.fallback_count(), 0);
    assert_eq!(stats.layout_histogram()["interleaved"], count as u64);
    let pivots = (count * n * std::mem::size_of::<usize>()) as u64;
    let per_block = bytes.saturating_sub(pivots) / count as u64;
    assert!(
        per_block < 96,
        "{per_block} B per block beyond the pivot array ({bytes} B in all)"
    );
}

/// The serve flush's allocation budget: a warm `SizeClassHandle` flush
/// on the service's engine (`CpuSequential`, guarded triage, blocked
/// layout, full precision). The factorize call keeps one per-block LU
/// scratch and the triage pass one estimator scratch, and the estimate
/// reads a block's LU record where it lies, so a member costs the
/// flush its factor values and its pivots plus the amortized growth of
/// the flush's per-member vectors, and the rest is per flush (20 / 22 /
/// 20 / 92 allocations for the rows below): per-block kernel scratch, a
/// copied factor or per-iteration estimator vectors break the budgets.
/// A flush serves one request in about 20 µs, so one more pass or
/// allocation per flush shows in the served latency.
#[test]
fn a_warm_serve_flush_stays_inside_its_allocation_budget() {
    use vbatch_core::BatchLayout;
    use vbatch_exec::{PrecisionPolicy, SizeClassHandle};
    let _serial = serial();
    let block = |n: usize, salt: usize| -> Vec<f64> {
        (0..n * n)
            .map(|e| {
                let (i, j) = (e % n, e / n);
                let h = (i * 131 + j * 37 + salt * 17 + 3) % 1024;
                h as f64 / 512.0 - 1.0 + if i == j { (n + 2) as f64 } else { 0.0 }
            })
            .collect()
    };
    let mut counts = Vec::new();
    // (order, capacity, members, allocations at most)
    for (n, capacity, members, budget) in [
        (4, 16, 1, 35),
        (4, 16, 2, 38),
        (16, 32, 1, 35),
        (16, 32, 32, 351),
    ] {
        let mut handle = SizeClassHandle::new(
            n,
            capacity,
            backend(),
            HealthPolicy::guarded::<f64>(),
            BatchLayout::Blocked,
            PrecisionPolicy::FullDp,
        );
        let blocks: Vec<Vec<f64>> = (0..members).map(|s| block(n, s)).collect();
        let refs: Vec<&[f64]> = blocks.iter().map(Vec::as_slice).collect();
        let mut flush = || {
            let mut rhs: Vec<Vec<f64>> = vec![vec![1.0; n]; members];
            let mut rhs_refs: Vec<&mut [f64]> = rhs.iter_mut().map(Vec::as_mut_slice).collect();
            let before = ALLOC.enrolled_snapshot();
            let statuses = handle.solve_batch(&refs, &mut rhs_refs);
            let allocs = ALLOC.enrolled_snapshot().allocs_since(&before);
            assert_eq!(statuses.len(), members);
            allocs
        };
        flush();
        let allocs = flush();
        assert!(
            allocs <= budget,
            "order {n}, {members} of {capacity}: a warm flush made {allocs} allocations \
             (budget {budget})"
        );
        counts.push(allocs);
    }
    // each member past the first: its factor values, its pivots and a
    // share of the per-member vectors' growth
    let (one, full) = (counts[2], counts[3]);
    assert!(
        full <= one + 3 * 31,
        "32 order-16 members cost {full} allocations, one costs {one}: \
         more than three per added member"
    );
}
