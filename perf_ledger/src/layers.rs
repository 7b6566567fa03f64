//! Every call into the layer crates, and nothing else.
//!
//! The rest of the ledger sees plain data (`Vec<f64>`, counts,
//! seconds); when a public signature in `vbatch-rt/-sparse/-core/
//! -exec/-precond/-solver/-serve` changes, this is the one file that
//! has to follow. It deliberately uses only the surface a later
//! clean-up keeps: `Backend::{factorize, prepare_apply,
//! solve_prepared}`, `BlockPreconditioner::setup_opts`,
//! `idr_with_workspace`, `SpikeSolver::{setup, solve_with}`,
//! `Service::{submit, ..}` — no `Exec`, no `idr_block_jacobi*`, no
//! `BlockJacobi::setup*` wrappers, and `Backend::solve` only as the
//! trait method `TimedBackend` is obliged to forward.
//!
//! Spans are opened here, around those calls, when a recorder is
//! passed; with `None` the calls run bare.

use crate::spans::{Recorder, SpanGuard};
use crate::ALLOC;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vbatch_core::{
    getrf_interleaved_class_simd, lu_solve_interleaved_class_scratch_simd, BatchLayout,
    InterleavedClass, MatrixBatch, VectorBatch,
};
use vbatch_exec::{
    Backend, BatchPlan, BlockStatus, BlockTriangular, ClassLayout, CpuSequential, CpuSimd,
    ExecStats, FactorizedBatch, HealthPolicy, PrecisionPolicy, PreparedApply, SizeClassHandle,
};
use vbatch_precond::{BlockIlu0, BlockJacobi, BlockPreconditioner, PrecondOptions, Preconditioner};
use vbatch_rt::par::par_map_vec;
use vbatch_rt::testgen::{banded_system_triplets, dd_dense};
use vbatch_serve::{Outcome, RejectReason, ServeConfig, SolveRequest, TenantId};
use vbatch_solver::{idr_with_workspace, KrylovWorkspace, SolveParams, SpikeSolver};
use vbatch_sparse::{
    by_name, extract_spike_blocks, residual, spmv, supervariable_blocking, BlockPartition,
    CooMatrix, CsrMatrix, LevelSchedule, SpikePartition,
};

// Library types the other modules hold or implement over; they import
// them from here, so no other file names a `vbatch_*` crate.
pub use vbatch_rt::alloc_guard::{AllocSnapshot, CountingAlloc};
pub use vbatch_rt::rng::SmallRng;
pub use vbatch_rt::simd::Chunk;
pub type Service = vbatch_serve::Service<f64>;
pub type Ticket = vbatch_serve::Ticket<f64>;

pub type Tracer<'a> = Option<&'a Arc<Recorder>>;

fn span<'a>(rec: Tracer<'a>, name: &'static str) -> Option<SpanGuard<'a>> {
    rec.map(|r| r.enter(name))
}

/// Whatever an op built that is expensive to free (factor storage,
/// workspaces). The driver drops it after stopping the op's clock.
pub type Keep = Box<dyn Any>;

pub fn nproc() -> usize {
    vbatch_rt::par::num_threads()
}

/// Lanes per f64 vector, as the `CpuSimd` kernels select them.
pub fn lane_width() -> usize {
    vbatch_rt::simd::lane_width(std::mem::size_of::<f64>())
}

/// Median round trip of an empty `par_map_vec` over one item per
/// thread: the scoped-thread spawn + join every parallel call pays.
pub fn par_overhead_us() -> f64 {
    let threads = nproc().max(2);
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(par_map_vec((0..threads).collect(), |i: usize| i));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples)
}

// ---------------------------------------------------------------- batch_*

pub struct BatchInputs {
    pub blocks: MatrixBatch<f64>,
    pub rhs: Vec<f64>,
}

/// Seeded diagonally dominant blocks of the given orders plus one
/// right-hand side per block.
pub fn gen_batch(rng: &mut SmallRng, sizes: &[usize]) -> BatchInputs {
    let mut blocks = MatrixBatch::zeros(sizes);
    for (i, &n) in sizes.iter().enumerate() {
        blocks.block_mut(i).copy_from_slice(&dd_dense(rng, n));
    }
    let total: usize = sizes.iter().sum();
    let rhs = (0..total).map(|_| rng.gen_range(-1.0..1.0)).collect();
    BatchInputs { blocks, rhs }
}

pub struct BatchOut {
    pub x: Vec<f64>,
    pub blocks: usize,
    pub classes: usize,
    pub interleaved_blocks: usize,
    pub fallback_blocks: usize,
    pub factorize_flops: f64,
    pub factorize_alloc_bytes: u64,
    pub apply_allocs: u64,
    pub keep: Keep,
}

/// One `batch_*` op: blocks in → plan → factorize → prepare → one
/// prepared solve → solutions out. Takes the blocks by value because
/// `Backend::factorize` does, and the right-hand sides by value because
/// the prepared solve overwrites them with the solutions.
pub fn batch_op(blocks: MatrixBatch<f64>, mut x: Vec<f64>, rec: Tracer) -> BatchOut {
    let backend = CpuSimd;
    let mut stats = ExecStats::new();
    let plan = {
        let _s = span(rec, "exec.plan");
        BatchPlan::auto::<f64>(blocks.sizes())
    };
    let a0 = ALLOC.snapshot();
    let factors = {
        let _s = span(rec, "exec.factorize");
        backend.factorize(blocks, &plan, &mut stats)
    };
    let a1 = ALLOC.snapshot();
    let prepared = {
        let _s = span(rec, "exec.prepare");
        Backend::<f64>::prepare_apply(&backend, &factors)
    };
    let a2 = ALLOC.snapshot();
    {
        let _s = span(rec, "exec.apply");
        backend.solve_prepared(&factors, &prepared, &mut x, &mut stats);
    }
    let a3 = ALLOC.snapshot();
    let interleaved_blocks = plan
        .layout_histogram()
        .iter()
        .filter(|(l, _)| *l != ClassLayout::Blocked)
        .map(|(_, c)| *c)
        .sum();
    BatchOut {
        x,
        blocks: plan.len(),
        classes: plan.classes.len(),
        interleaved_blocks,
        fallback_blocks: factors.fallback_count(),
        factorize_flops: stats.flops,
        factorize_alloc_bytes: a1.bytes_since(&a0),
        apply_allocs: a3.allocs_since(&a2),
        keep: Box::new((factors, prepared)),
    }
}

/// The raw `vbatch-core` lane kernels on a uniform batch, chunked and
/// threaded the way `CpuSimd::factorize` / `solve_prepared` run them:
/// pack + GETRF per 128 KiB chunk on `nproc` scoped threads (times are
/// per-thread busy time), the TRSV sequentially. (The chunk budget
/// mirrors a private constant of `vbatch-exec`; see the README's
/// hazards.)
pub struct CoreKernels {
    pub pack_s: f64,
    pub getrf_s: f64,
    pub trsv_s: f64,
    pub getrf_flops: f64,
    pub trsv_flops: f64,
    /// Computed bytes the TRSV must move: factors once, rhs in and out.
    pub trsv_bytes: f64,
    pub x: Vec<f64>,
    pub failed_slots: usize,
}

pub fn core_kernels(inputs: &BatchInputs) -> CoreKernels {
    let blocks = &inputs.blocks;
    let n = blocks.size(0);
    assert!(blocks.sizes().iter().all(|&s| s == n), "uniform batch only");
    let slots = ((128 * 1024) / (n * n * 8)).max(8);
    let per_thread = blocks.len().div_ceil(nproc()).max(1);
    let members: Vec<usize> = (0..blocks.len()).collect();
    let chunks: Vec<Vec<usize>> = members
        .chunks(slots.min(per_thread))
        .map(<[usize]>::to_vec)
        .collect();

    // pack then factorize each chunk while it is cache-hot, as exec
    // does; each kernel's busy time is summed over chunks and shared
    // out over the threads that ran them
    let threads = nproc().min(chunks.len()).max(1) as f64;
    let factored = par_map_vec(chunks, |m| {
        let t0 = Instant::now();
        let class = InterleavedClass::pack_from(blocks, &m);
        let t1 = Instant::now();
        let (n, idx, mut data) = class.into_parts();
        let mut piv = vec![0usize; n * idx.len()];
        let errs = getrf_interleaved_class_simd(n, idx.len(), &mut data, &mut piv);
        let busy = (t1 - t0, t1.elapsed());
        (idx, data, piv, errs.iter().flatten().count(), busy)
    });
    let pack_s = factored.iter().map(|f| f.4 .0.as_secs_f64()).sum::<f64>() / threads;
    let getrf_s = factored.iter().map(|f| f.4 .1.as_secs_f64()).sum::<f64>() / threads;

    let mut x = inputs.rhs.clone();
    let mut trsv_s = 0.0;
    let mut lanes = Vec::new();
    let mut scratch = Vec::new();
    for (idx, data, piv, ..) in &factored {
        let count = idx.len();
        lanes.clear();
        lanes.resize(n * count, 0.0);
        scratch.resize(n * count, 0.0);
        for (slot, &blk) in idx.iter().enumerate() {
            for i in 0..n {
                lanes[i * count + slot] = x[blk * n + i];
            }
        }
        let t0 = Instant::now();
        lu_solve_interleaved_class_scratch_simd(n, count, data, piv, &mut lanes, &mut scratch);
        trsv_s += t0.elapsed().as_secs_f64();
        for (slot, &blk) in idx.iter().enumerate() {
            for i in 0..n {
                x[blk * n + i] = lanes[i * count + slot];
            }
        }
    }
    CoreKernels {
        pack_s,
        getrf_s,
        trsv_s,
        getrf_flops: blocks.getrf_flops(),
        trsv_flops: blocks.trsv_flops(),
        trsv_bytes: (blocks.len() * (n * n + 2 * n) * 8) as f64,
        x,
        failed_slots: factored.iter().map(|f| f.3).sum(),
    }
}

// ---------------------------------------------------------------- solve_*

pub struct SolveProblem {
    pub name: &'static str,
    pub a: CsrMatrix<f64>,
    pub b: Vec<f64>,
}

/// One problem of the synthetic Table-I suite, its generator seed
/// folded with the run's seed; right-hand side of all ones (the
/// paper's protocol).
pub fn gen_suite_problem(name: &'static str, base_seed: u64) -> SolveProblem {
    let mut p = by_name(name).unwrap_or_else(|| panic!("no suite problem named {name}"));
    p.seed = base_seed ^ p.id as u64;
    let a = p.build();
    let b = vec![1.0; a.nrows()];
    SolveProblem { name, a, b }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precond {
    BlockJacobi,
    BlockIlu0,
}

pub struct SolveOut {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    pub block_sizes: Vec<usize>,
    pub interleaved_blocks: usize,
    pub fallback_blocks: usize,
    pub factorize_flops: f64,
    pub iterate_allocs: u64,
}

/// One problem of a `solve_*` pass: CSR in → supervariable blocking →
/// preconditioner setup → IDR(4) to relres 1e-6. The same calls
/// `IdrSolver::setup_opts` + `solve` make, spelled out so the traced
/// run can put its wrappers between them.
pub fn solve_op(kind: Precond, p: &SolveProblem, rec: Tracer) -> SolveOut {
    match kind {
        Precond::BlockJacobi => solve_with::<BlockJacobi<f64>>(p, rec),
        Precond::BlockIlu0 => solve_with::<BlockIlu0<f64>>(p, rec),
    }
}

fn solve_with<M: BlockPreconditioner<f64>>(p: &SolveProblem, rec: Tracer) -> SolveOut {
    let part = {
        let _s = span(rec, "sparse.blocking");
        supervariable_blocking(&p.a, 32)
    };
    let backend: Arc<dyn Backend<f64>> = match rec {
        Some(r) => Arc::new(TimedBackend {
            inner: CpuSimd,
            rec: Arc::clone(r),
        }),
        None => Arc::new(CpuSimd),
    };
    let m = {
        let _s = span(rec, "precond.setup");
        M::setup_opts(&p.a, &part, backend, PrecondOptions::default())
            .expect("suite problems are square and the partition covers them")
    };
    let mut ws = {
        let _s = span(rec, "solver.workspace");
        KrylovWorkspace::for_idr(p.a.nrows(), 4)
    };
    let params = SolveParams::default();
    let a0 = ALLOC.snapshot();
    let res = match rec {
        Some(r) => {
            let timed = TimedPrecond { inner: &m, rec: r };
            let _s = r.enter("solver.iterate");
            idr_with_workspace(&p.a, &p.b, 4, &timed, &params, &mut ws)
        }
        None => idr_with_workspace(&p.a, &p.b, 4, &m, &params, &mut ws),
    };
    let iterate_allocs = ALLOC.snapshot().allocs_since(&a0);
    let report = m.setup_report();
    let layouts = report.stats.layout_histogram();
    SolveOut {
        iterations: res.iterations,
        converged: res.converged(),
        x: res.x,
        block_sizes: part.sizes(),
        interleaved_blocks: layouts
            .iter()
            .filter(|(l, _)| **l != ClassLayout::Blocked.label())
            .map(|(_, c)| *c as usize)
            .sum(),
        fallback_blocks: report.fallback_blocks,
        factorize_flops: report.stats.flops,
        iterate_allocs,
    }
}

/// `count` sequential SpMVs on the problem's matrix, timed directly:
/// the solver calls `spmv` itself, so its share of `solver.iterate` can
/// only be measured beside the run, not inside it.
pub fn spmv_seconds(p: &SolveProblem, count: usize) -> f64 {
    let x = vec![1.0; p.a.ncols()];
    let mut y = vec![0.0; p.a.nrows()];
    let t0 = Instant::now();
    for _ in 0..count {
        spmv(&p.a, std::hint::black_box(&x), &mut y);
    }
    std::hint::black_box(&y);
    t0.elapsed().as_secs_f64()
}

/// Computed bytes one CSR SpMV moves: values + column indices + row
/// pointers once, x and y once.
pub fn spmv_bytes(a: &CsrMatrix<f64>) -> f64 {
    (a.nnz() * 16 + (a.nrows() + 1) * 8 + (a.nrows() + a.ncols()) * 8) as f64
}

/// Computed bytes diagonal-block extraction reads (the CSR once).
pub fn csr_bytes(a: &CsrMatrix<f64>) -> f64 {
    (a.nnz() * 16 + (a.nrows() + 1) * 8) as f64
}

/// `b − A x` and `‖A‖∞` through the library's CSR kernels.
pub fn csr_residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> (Vec<f64>, f64) {
    let norm_a = (0..a.nrows())
        .map(|r| a.row_vals(r).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    (residual(a, x, b), norm_a)
}

// ---------------------------------------------------------------- solve_spike

pub struct SpikeInputs {
    pub a: CsrMatrix<f64>,
    pub b: Vec<f64>,
    pub sp: SpikePartition,
}

pub fn gen_spike(rng: &mut SmallRng, n: usize, bw: usize, partitions: usize) -> SpikeInputs {
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in banded_system_triplets(n, bw, 2.0, rng.next_u64()) {
        coo.push(i, j, v);
    }
    let b = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let sp = SpikePartition::uniform(n, partitions, bw)
        .expect("every partition holds at least 2 * bandwidth rows");
    SpikeInputs {
        a: coo.to_csr(),
        b,
        sp,
    }
}

pub struct SpikeOut {
    pub x: Vec<f64>,
    pub converged: bool,
    pub refinements: usize,
    pub partitions: usize,
    pub fallback_blocks: usize,
    pub factorize_flops: f64,
    pub keep: Keep,
}

pub fn spike_op(inp: &SpikeInputs, rec: Tracer) -> SpikeOut {
    let backend: Arc<dyn Backend<f64>> = match rec {
        Some(r) => Arc::new(TimedBackend {
            inner: CpuSimd,
            rec: Arc::clone(r),
        }),
        None => Arc::new(CpuSimd),
    };
    let solver = {
        let _s = span(rec, "solver.spike_setup");
        SpikeSolver::setup(&inp.a, &inp.sp, backend, PrecondOptions::default())
            .expect("the generated system is banded within the partition's bandwidth")
    };
    let out = {
        let _s = span(rec, "solver.spike_solve");
        solver.solve_with(&inp.b, 1e-10, 100)
    };
    SpikeOut {
        x: out.x,
        converged: out.converged,
        refinements: out.refinements,
        partitions: inp.sp.len(),
        fallback_blocks: solver.fallback_blocks,
        factorize_flops: solver.stats.flops,
        keep: Box::new(solver),
    }
}

/// The SPIKE extraction alone (`SpikeSolver::setup` calls it
/// internally, out of reach of a span).
pub fn spike_extract_seconds(inp: &SpikeInputs) -> f64 {
    let t0 = Instant::now();
    let blocks = extract_spike_blocks(&inp.a, &inp.sp).expect("banded input");
    let secs = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(blocks));
    secs
}

// ---------------------------------------------------------------- serve_*

pub struct ServeShape {
    pub orders: std::ops::RangeInclusive<usize>,
    pub queue_capacity: usize,
    pub class_capacity: usize,
}

pub const SERVE_TENANTS: u64 = 64;

/// The service exactly as `Service::start` gives it to a user: its own
/// defaults (sequential CPU backend, blocked layout, guarded triage)
/// under the pinned shard/queue/class/flush configuration. The shard
/// worker is then the only thread doing solves, which is what keeps
/// client + worker within the two cores.
pub fn start_service(shape: &ServeShape) -> Service {
    Service::start(ServeConfig {
        shards: 1,
        queue_capacity: shape.queue_capacity,
        max_order: shape.class_capacity,
        class_capacity: shape.class_capacity,
        flush_watermark: Duration::from_micros(200),
        idle_tick: Duration::from_micros(500),
    })
    .expect("the pinned serve configuration is valid")
}

#[derive(Clone)]
pub struct RawRequest {
    pub tenant: u64,
    pub n: usize,
    pub matrix: Vec<f64>,
    pub rhs: Vec<f64>,
}

/// Request number `i` of the stream seeded by `seed`: regenerable on
/// its own, so the verifier needs no copy of what was sent.
pub fn gen_request(seed: u64, i: u64, orders: &std::ops::RangeInclusive<usize>) -> RawRequest {
    let mut rng = SmallRng::seed_from_u64(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let tenant = rng.gen_range(0u64..SERVE_TENANTS);
    let n = rng.gen_range(*orders.start()..*orders.end() + 1);
    let matrix = dd_dense(&mut rng, n);
    let rhs = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    RawRequest {
        tenant,
        n,
        matrix,
        rhs,
    }
}

pub fn submit(service: &Service, r: RawRequest) -> Ticket {
    service.submit(SolveRequest {
        tenant: TenantId(r.tenant),
        n: r.n,
        matrix: r.matrix,
        rhs: r.rhs,
        deadline_ns: service.deadline_in(Duration::from_secs(2)),
    })
}

pub enum Fate {
    Solved(Vec<f64>),
    Degraded,
    Shed,
    Expired,
    Refused,
}

fn fate(outcome: Outcome<f64>) -> Fate {
    match outcome {
        Outcome::Solved { solution, .. } => Fate::Solved(solution),
        Outcome::Degraded { .. } => Fate::Degraded,
        Outcome::Rejected(RejectReason::QueueFull { .. }) => Fate::Shed,
        Outcome::Rejected(RejectReason::DeadlineExpired) => Fate::Expired,
        Outcome::Rejected(_) => Fate::Refused,
    }
}

pub fn wait(ticket: Ticket) -> Fate {
    fate(ticket.wait())
}

pub fn try_wait(ticket: Ticket) -> Result<Fate, Ticket> {
    ticket.try_wait().map(fate)
}

pub fn queue_depth(service: &Service) -> usize {
    service.queue_depth(0)
}

pub fn shutdown(service: Service) {
    service.shutdown();
}

/// Seconds to solve `reqs` directly through `SizeClassHandle` — the
/// engine a shard flushes into, built with the service's defaults — in
/// full `class_capacity` classes per order: the service's work with
/// none of its queueing.
pub fn direct_work_seconds(reqs: &[RawRequest], class_capacity: usize) -> f64 {
    let mut by_order: BTreeMap<usize, Vec<RawRequest>> = BTreeMap::new();
    for r in reqs {
        by_order.entry(r.n).or_default().push(r.clone());
    }
    let mut secs = 0.0;
    for (n, mut members) in by_order {
        let mut handle = SizeClassHandle::new(
            n,
            class_capacity,
            Arc::new(CpuSequential) as Arc<dyn Backend<f64>>,
            HealthPolicy::guarded::<f64>(),
            BatchLayout::Blocked,
            PrecisionPolicy::FullDp,
        );
        for class in members.chunks_mut(class_capacity) {
            let (blocks, mut rhs): (Vec<&[f64]>, Vec<&mut [f64]>) = class
                .iter_mut()
                .map(|r| (r.matrix.as_slice(), r.rhs.as_mut_slice()))
                .unzip();
            let t0 = Instant::now();
            std::hint::black_box(handle.solve_batch(&blocks, &mut rhs));
            secs += t0.elapsed().as_secs_f64();
        }
    }
    secs
}

// ---------------------------------------------------------------- wrappers

/// `CpuSimd` with a span around every `Backend` call. Forwards the
/// *provided* methods too: falling back to the trait defaults would
/// silently time the allocating compat path instead of the backend's.
pub struct TimedBackend {
    inner: CpuSimd,
    rec: Arc<Recorder>,
}

impl Backend<f64> for TimedBackend {
    fn name(&self) -> &'static str {
        Backend::<f64>::name(&self.inner)
    }

    fn extract_blocks(
        &self,
        a: &CsrMatrix<f64>,
        part: &BlockPartition,
        stats: &mut ExecStats,
    ) -> MatrixBatch<f64> {
        let _s = self.rec.enter("sparse.extract");
        self.inner.extract_blocks(a, part, stats)
    }

    fn factorize(
        &self,
        blocks: MatrixBatch<f64>,
        plan: &BatchPlan,
        stats: &mut ExecStats,
    ) -> FactorizedBatch<f64> {
        let _s = self.rec.enter("exec.factorize");
        self.inner.factorize(blocks, plan, stats)
    }

    fn solve(
        &self,
        factors: &FactorizedBatch<f64>,
        rhs: &mut VectorBatch<f64>,
        stats: &mut ExecStats,
    ) {
        let _s = self.rec.enter("exec.solve");
        self.inner.solve(factors, rhs, stats)
    }

    fn prepare_apply(&self, factors: &FactorizedBatch<f64>) -> PreparedApply<f64> {
        let _s = self.rec.enter("exec.prepare");
        self.inner.prepare_apply(factors)
    }

    fn solve_prepared(
        &self,
        factors: &FactorizedBatch<f64>,
        prepared: &PreparedApply<f64>,
        v: &mut [f64],
        stats: &mut ExecStats,
    ) {
        let _s = self.rec.enter("exec.apply");
        self.inner.solve_prepared(factors, prepared, v, stats)
    }

    fn sweep_triangular(
        &self,
        tri: &BlockTriangular<f64>,
        sched: &LevelSchedule,
        v: &mut [f64],
        stats: &mut ExecStats,
    ) {
        let _s = self.rec.enter("exec.sweep");
        self.inner.sweep_triangular(tri, sched, v, stats)
    }

    fn invert(
        &self,
        blocks: &MatrixBatch<f64>,
        stats: &mut ExecStats,
    ) -> (MatrixBatch<f64>, Vec<BlockStatus>) {
        let _s = self.rec.enter("exec.invert");
        self.inner.invert(blocks, stats)
    }

    fn apply_gemv(
        &self,
        blocks: &MatrixBatch<f64>,
        x: &VectorBatch<f64>,
        y: &mut VectorBatch<f64>,
        stats: &mut ExecStats,
    ) {
        let _s = self.rec.enter("exec.gemv");
        self.inner.apply_gemv(blocks, x, y, stats)
    }
}

/// A preconditioner with a span around every apply, so the backend's
/// spans nest under it and it nests under `solver.iterate`.
pub struct TimedPrecond<'a, M> {
    inner: &'a M,
    rec: &'a Recorder,
}

impl<M: Preconditioner<f64>> Preconditioner<f64> for TimedPrecond<'_, M> {
    fn apply_inplace(&self, v: &mut [f64]) {
        let _s = self.rec.enter("precond.apply");
        self.inner.apply_inplace(v)
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}
