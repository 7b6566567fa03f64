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
//! The factorization side has a budget too: a batch whose factors can be
//! built in its own value array must not be copied
//! (`factorize_in_the_storage_given_allocates_no_second_copy`).
//!
//! The counter is process-wide and the test harness runs tests on
//! parallel threads, so every test holds [`serial`] for its whole body:
//! a snapshot pair then brackets exactly one test's allocations.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vbatch_core::MatrixBatch;
use vbatch_exec::{
    Backend, BatchPlan, CpuSequential, CpuSimd, ExecStats, HealthPolicy, PlanMethod,
};
use vbatch_precond::{BlockIlu0, BlockJacobi, BlockPreconditioner, PrecondOptions, Preconditioner};
use vbatch_rt::CountingAlloc;
use vbatch_solver::{IdrSolver, SolveParams, StopReason};
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::{BlockPartition, CsrMatrix};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static SERIAL: Mutex<()> = Mutex::new(());

/// Exclusive use of the allocation counter. A test that failed while
/// holding the lock poisons it; the `()` inside cannot be left invalid,
/// so the remaining tests recover the guard and still run.
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // With tracing compiled in, a thread's first span builds its event
    // ring — inside whatever window is being measured, unless this
    // thread and the pool's workers have theirs by now.
    vbatch_trace::reserve_pool_rings(0);
    // The harness reacts to the previous test's end — joins its thread,
    // spawns the next one — while this test is already running, and
    // every step of that allocates. Let it finish before any snapshot.
    loop {
        let seen = ALLOC.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(2));
        if ALLOC.snapshot() == seen {
            return guard;
        }
    }
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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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
    vbatch_trace::set_enabled(true);
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = bj(&a, &part, backend());
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up (ring already reserved at setup)
    let ev0 = vbatch_trace::thread_events_written();
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    let ev1 = vbatch_trace::thread_events_written();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm traced apply must not allocate ({} bytes leaked in)",
        after.bytes_since(&before)
    );
    if vbatch_trace::enabled() {
        assert!(
            ev1 > ev0,
            "tracing is enabled but the measured applies recorded no events"
        );
        assert_eq!(vbatch_trace::dropped(), 0, "pre-sized ring dropped events");
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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().allocs_since(&s0);

    let mut handle_long =
        IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(&a, 4, &part, backend(), opts, &long).unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().allocs_since(&s1);

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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().allocs_since(&s0);

    let mut handle_long = idr_bj(&a, &part, simd_backend(), &long);
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().allocs_since(&s1);

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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().allocs_since(&s0);

    let mut handle_long = idr_bj(&a, &part, simd_backend(), &long);
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().allocs_since(&s1);

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
            let before = ALLOC.snapshot();
            m.apply_inplace(&mut v);
            m.apply_inplace(&mut v);
            let after = ALLOC.snapshot();
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

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().allocs_since(&s0);

    let mut handle_long =
        IdrSolver::<f64, BlockJacobi<f64>>::setup_opts(&a, 4, &part, backend(), opts, &long)
            .unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().allocs_since(&s1);

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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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
    vbatch_trace::set_enabled(true);
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
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
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

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().allocs_since(&s0);

    let mut handle_long = idr_bj(&a, &part, backend(), &long);
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().allocs_since(&s1);

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
            let before = ALLOC.snapshot();
            let factors = backend.factorize(input, plan, &mut stats);
            let bytes = ALLOC.snapshot().bytes_since(&before);
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
