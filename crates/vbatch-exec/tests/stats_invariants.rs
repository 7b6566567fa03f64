//! Deterministic regression tests of the `ExecStats` / trace-registry
//! invariants:
//!
//! * per-phase wall-clock entries are non-negative and their sum never
//!   exceeds the wall time of the run that produced them — every
//!   instant is booked once, also where one stage wraps calls that book
//!   phases of their own (the SPIKE setup's `Reduce`) — on both
//!   backends, the pooled one included;
//! * for a batch with no fallbacks, the kernel histogram totals exactly
//!   the block count, and the fallback blocks account for the rest
//!   otherwise — on every backend's `factorize` and `invert`;
//! * when tracing is compiled in and enabled, the number of ring events
//!   emitted by one prepared apply matches the spans and counters the
//!   instrumented path is documented to emit — no hidden event sources,
//!   no lost records.

use std::time::Instant;
use vbatch_core::{BatchLayout, MatrixBatch, VectorBatch};
use vbatch_exec::{Backend, BatchPlan, CpuSequential, CpuSimd, ExecStats, Phase, PlanMethod};
use vbatch_rt::{testgen, SmallRng};

fn uniform_batch(count: usize, n: usize, seed: u64) -> MatrixBatch<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let raw = testgen::uniform_dd_batch(&mut rng, n, count);
    let mut batch = MatrixBatch::zeros(&raw.sizes);
    for i in 0..count {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    batch
}

/// Factorize, one-shot solve and two prepared applies on each backend:
/// all three phases are booked, and together (Duration is unsigned:
/// non-negativity is structural) they stay within the run's wall time.
#[test]
fn phase_times_are_nonnegative_and_bounded_by_wall_time() {
    let batch = uniform_batch(64, 8, 11);
    let sizes = batch.sizes().to_vec();
    let plan = BatchPlan::auto::<f64>(&sizes);
    let backends: [&dyn Backend<f64>; 2] = [&CpuSequential, &CpuSimd];
    for backend in backends {
        let name = backend.name();
        let mut stats = ExecStats::new();

        let wall0 = Instant::now();
        let factors = backend.factorize(batch.clone(), &plan, &mut stats);
        let mut rhs = VectorBatch::from_flat(&sizes, &vec![1.0; 64 * 8]);
        backend.solve(&factors, &mut rhs, &mut stats);
        let prep = backend.prepare_apply(&factors);
        let mut v = vec![1.0f64; 64 * 8];
        backend.solve_prepared(&factors, &prep, &mut v, &mut stats);
        backend.solve_prepared(&factors, &prep, &mut v, &mut stats);
        let wall = wall0.elapsed();

        for p in [Phase::Factorize, Phase::Solve, Phase::Apply] {
            assert!(
                stats.phase_time(p).as_nanos() > 0,
                "{name}: {} not booked",
                p.label()
            );
        }
        assert!(
            stats.phase_total() <= wall,
            "{name}: phase sum {:?} exceeds wall time {wall:?} of the run",
            stats.phase_total()
        );
        assert_eq!(stats.applies, 2, "{name}");
        assert_eq!(
            stats.workspace_hwm_elems,
            prep.workspace_hwm_elems(),
            "{name}"
        );
    }
}

/// Every producer of a kernel histogram — `factorize` and `invert` on
/// each backend — run on `batch`: `(what, stats, fallback blocks)`.
fn each_producer(batch: &MatrixBatch<f64>, plan: &BatchPlan) -> Vec<(String, ExecStats, usize)> {
    let backends: [&dyn Backend<f64>; 2] = [&CpuSequential, &CpuSimd];
    let mut runs = Vec::new();
    for backend in backends {
        let mut stats = ExecStats::new();
        let factors = backend.factorize(batch.clone(), plan, &mut stats);
        let fallbacks = factors.fallback_count();
        runs.push((format!("{} factorize", backend.name()), stats, fallbacks));
        let mut stats = ExecStats::new();
        let (_, status) = backend.invert(batch, &mut stats);
        let fallbacks = status.iter().filter(|s| s.is_fallback()).count();
        runs.push((format!("{} invert", backend.name()), stats, fallbacks));
    }
    runs
}

#[test]
fn kernel_histogram_totals_the_block_count() {
    for layout in [
        BatchLayout::Blocked,
        BatchLayout::Interleaved { class_capacity: 2 },
    ] {
        let batch = uniform_batch(48, 6, 23);
        let plan = BatchPlan::for_method_with_layout::<f64>(batch.sizes(), PlanMethod::Lu, layout);
        for (what, stats, fallbacks) in each_producer(&batch, &plan) {
            assert_eq!(fallbacks, 0, "{what}");
            let total: u64 = stats.kernel_histogram().values().sum();
            assert_eq!(total, 48, "{what} ({layout:?})");
            // a factorization's layout histogram covers every block too
            if what.ends_with("factorize") {
                let layout_total: u64 = stats.layout_histogram().values().sum();
                assert_eq!(layout_total, 48, "{what} ({layout:?})");
            }
        }
    }
}

#[test]
fn failures_complete_the_kernel_histogram() {
    let mut batch = uniform_batch(8, 4, 31);
    // make one block exactly singular for every kernel: a zero row
    // (two equal rows leave Gauss-Jordan a rounding-sized pivot)
    {
        let b = batch.block_mut(3);
        for c in 0..4 {
            b[c * 4 + 1] = 0.0;
        }
    }
    let plan = BatchPlan::for_method::<f64>(batch.sizes(), PlanMethod::Lu);
    for (what, stats, fallbacks) in each_producer(&batch, &plan) {
        assert_eq!(fallbacks, 1, "{what}");
        let total: u64 = stats.kernel_histogram().values().sum();
        assert_eq!(total + fallbacks as u64, 8, "{what}");
    }
}

/// One prepared apply on `CpuSequential` emits a documented set of ring
/// events: begin/end of the `exec.apply` span, begin/end per apply
/// unit, plus one counter event from `ExecStats::record_apply`. The
/// delta of this thread's event counter must match exactly — the test
/// is a canary for silently added (or dropped) hot-loop events.
#[test]
fn trace_event_count_matches_spans_emitted() {
    let batch = uniform_batch(32, 8, 47);
    let sizes = batch.sizes().to_vec();
    let plan = BatchPlan::auto::<f64>(&sizes);
    let mut stats = ExecStats::new();
    let factors = CpuSequential.factorize(batch, &plan, &mut stats);
    let prep = CpuSequential.prepare_apply(&factors);
    let mut v = vec![1.0f64; 32 * 8];
    // warm-up creates this thread's ring (if the feature is on)
    CpuSequential.solve_prepared(&factors, &prep, &mut v, &mut stats);

    if !vbatch_trace::enabled() {
        // feature off: the counter must stay identically zero
        assert_eq!(vbatch_trace::thread_events_written(), 0);
        return;
    }
    let before = vbatch_trace::thread_events_written();
    CpuSequential.solve_prepared(&factors, &prep, &mut v, &mut stats);
    let emitted = vbatch_trace::thread_events_written() - before;
    let expected = 2 * (1 + prep.unit_count() as u64) + 1;
    assert_eq!(
        emitted,
        expected,
        "one sequential prepared apply with {} units must emit exactly \
         2*(1+units)+1 events",
        prep.unit_count()
    );
}

/// Block-ILU(0) setup books every stage under a phase of its own —
/// diagonal, pattern and triangle extraction (`Extract`), the host IKJ
/// sweep (`Sweep`), the batched diagonal factorization (`Factorize`)
/// and the upper-factor normalisation (`Solve`) — so `SetupReport.stats`
/// explains the setup: the four are all non-zero, and their sum stays
/// within the wall time of the call (the same contract as above).
#[test]
fn bilu_setup_phases_explain_the_setup_within_wall_time() {
    use std::sync::Arc;
    use vbatch_precond::{BlockIlu0, BlockPreconditioner, PrecondOptions};
    use vbatch_sparse::gen::laplace::laplace_2d;
    use vbatch_sparse::BlockPartition;

    let a = laplace_2d::<f64>(24, 24);
    let part = BlockPartition::uniform(a.nrows(), 6);
    let wall0 = Instant::now();
    let m = BlockIlu0::setup_opts(
        &a,
        &part,
        Arc::new(CpuSequential),
        PrecondOptions::default(),
    )
    .unwrap();
    let wall = wall0.elapsed();
    let stats = m.setup_report().stats;

    let booked = [Phase::Extract, Phase::Sweep, Phase::Factorize, Phase::Solve];
    let mut sum = std::time::Duration::ZERO;
    for p in booked {
        let t = stats.phase_time(p);
        assert!(t.as_nanos() > 0, "{} not booked", p.label());
        sum += t;
    }
    for p in [Phase::Invert, Phase::Gemv, Phase::Apply, Phase::Reduce] {
        assert_eq!(stats.phase_time(p).as_nanos(), 0, "{}", p.label());
    }
    assert!(
        sum <= wall,
        "phase sum {sum:?} exceeds wall time {wall:?} of the setup"
    );
    assert!(sum <= m.setup_time);
}

/// SPIKE setup books extraction (`Extract`), both batched
/// factorizations (`Factorize`), the `2k` batched spike solves
/// (`Apply`) and — as `Reduce` — only what spike formation and reduced
/// assembly take beyond those, so the four sum to at most the setup
/// time. `Reduce` wrapping the nested solves and the reduced
/// factorization whole booked them twice.
#[test]
fn spike_setup_phases_sum_within_the_setup_time() {
    use std::sync::Arc;
    use vbatch_precond::PrecondOptions;
    use vbatch_solver::SpikeSolver;
    use vbatch_sparse::{CooMatrix, SpikePartition};

    let (n, bw) = (4096, 4);
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in testgen::banded_system_triplets(n, bw, 2.0, 61) {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    let sp = SpikePartition::uniform(n, 128, bw).unwrap();
    let m = SpikeSolver::<f64>::setup(&a, &sp, Arc::new(CpuSequential), PrecondOptions::default())
        .unwrap();

    for p in [
        Phase::Extract,
        Phase::Factorize,
        Phase::Apply,
        Phase::Reduce,
    ] {
        assert!(
            m.stats.phase_time(p).as_nanos() > 0,
            "{} not booked",
            p.label()
        );
    }
    for p in [Phase::Solve, Phase::Invert, Phase::Gemv, Phase::Sweep] {
        assert_eq!(m.stats.phase_time(p).as_nanos(), 0, "{}", p.label());
    }
    assert_eq!(m.stats.applies, 2 * bw as u64);
    assert!(
        m.stats.phase_total() <= m.setup_time,
        "phase sum {:?} exceeds setup time {:?}",
        m.stats.phase_total(),
        m.setup_time
    );
}
