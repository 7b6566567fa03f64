//! Host backends: one kernel set, on the calling thread or on the pool.
//!
//! [`CpuSequential`] and [`CpuSimd`] run the same `vbatch-core` kernels
//! through the same factorize / apply functions and produce the same
//! bits; they differ in one bit — `CpuSequential` stays on the calling
//! thread, `CpuSimd` fans setup *and* apply out over the persistent pool
//! of `vbatch_rt::par`.
//!
//! Each block runs what its size class says ([`BatchPlan::class`]): the
//! kernel family — the paper's three LU launch shapes are the one
//! [`KernelChoice::Lu`] kernel here — and the layout. Blocked classes go through the per-block kernels. A
//! class the plan marked [`ClassLayout::Interleaved`], of any order,
//! maps one *slot per vector lane* — the CPU realization of the paper's
//! one-matrix-per-SIMT-lane mapping — through the lane GETRF/TRSV of
//! `vbatch_core::interleaved_simd`, whose per-slot results are bitwise
//! those of the per-block kernels:
//!
//! ```text
//! interleaved class (n=16, count=20k)      lane group (W = 8 f64 lanes:
//! slot:   0  1  2  3  4  5  6  7 | 8 ...   one 512-bit register, or the
//! a(0,0) [.  .  .  .  .  .  .  .]| .       256-bit pair LLVM prefers on
//! a(1,0) [.  .  .  .  .  .  .  .]| .       this host) holds a(i,j) of 8
//!  ...                           |         matrices; the group's whole
//! a(n,n) [.  .  .  .  .  .  .  .]| .       elimination runs before the
//!                                          next group starts
//! ```
//!
//! The group is eliminated out of a packed copy of its own — 17 KiB at
//! n = 16, L1-resident; 66 KiB at n = 32, which is past a 48 KiB L1d
//! and lives in L2.
//!
//! Factorization takes the batch by value and, where it can, builds the
//! factors in the batch's own value array (`factorize_cpu` has the
//! rule); an interleaved class is a range of one slab either way
//! ([`crate::ClassSlab`]).

use crate::apply::{run_apply_unit, FlatVecPtr, PreparedApply, APPLY_GRAIN_ELEMS};
use crate::backend::Backend;
use crate::factors::{
    block_diag, scalar_jacobi_from_diag, BlockFactor, BlockStatus, ClassSlab, FactorizedBatch,
    Home, InterleavedLuClass, Record,
};
use crate::plan::{BatchPlan, ClassLayout, KernelChoice, PrecisionPolicy};
use crate::stats::{ExecStats, Phase};
use std::ops::Range;
use std::time::Instant;
use vbatch_core::lu::implicit::getrf_implicit_inplace_scratch;
use vbatch_core::{
    gemv, getrf_interleaved_class_simd_scratch, gh_factorize, gje_invert, narrow_slice, potrf,
    DenseMat, FactorError, GhLayout, LaneGetrfScratch, MatrixBatch, Permutation, Scalar, Storage,
    StoragePrecision, Stored, VectorBatch,
};
use vbatch_rt::par::{num_threads, par_map_vec, run_ranges};
use vbatch_sparse::{extract_diag_blocks, BlockPartition, CsrMatrix};

/// One block after another; deterministic reference execution.
pub struct CpuSequential;

/// Setup and apply distributed over the persistent pool of `vbatch-rt`;
/// a warm apply allocates nothing (`vbatch-solver` pins it).
pub struct CpuSimd;

/// The per-block LU kernel's two scratch vectors
/// ([`getrf_implicit_inplace_scratch`]: the step-of-row flags and the
/// row swap's column), kept for a whole factorize call — one per worker
/// thread — so a block allocates only the factor it keeps.
pub(crate) struct GetrfScratch<S> {
    step_of_row: Vec<usize>,
    col: Vec<S>,
}

impl<S: Scalar> GetrfScratch<S> {
    /// Empty scratch; the first block sizes it.
    pub(crate) fn new() -> Self {
        GetrfScratch {
            step_of_row: Vec::new(),
            col: Vec::new(),
        }
    }

    /// Factorize the column-major `n x n` block `a` in place (the
    /// per-block implicit-pivot kernel); on success, the step at which
    /// each original row became the pivot.
    pub(crate) fn getrf(&mut self, n: usize, a: &mut [S]) -> Result<&[usize], FactorError> {
        self.step_of_row.resize(n, 0);
        self.col.resize(n, S::ZERO);
        getrf_implicit_inplace_scratch(n, a, &mut self.step_of_row, &mut self.col)?;
        Ok(&self.step_of_row)
    }
}

/// Factorize one block with the planned kernel, storing LU/GH-family
/// factors in scalar `S` (computed on the block narrowed to `S`) and
/// degrading to scalar Jacobi on failure. Inversion and Cholesky have no
/// widening apply path and always stay native. The LU arm runs the
/// per-block kernel on the caller's `scratch`, so its only allocations
/// are the factor and the pivots it returns.
pub(crate) fn factor_block<T: Scalar, S: Stored<T>>(
    n: usize,
    block: &[T],
    kernel: KernelChoice,
    scratch: &mut GetrfScratch<S>,
) -> (BlockFactor<T>, BlockStatus) {
    let fallback = |error: FactorError| {
        let (factor, sanitized) = scalar_jacobi_from_diag(&block_diag(n, block));
        (factor, BlockStatus::fallback(kernel, error, sanitized, n))
    };
    let factorized = |factor: BlockFactor<T>, precision: StoragePrecision| {
        let mut status = BlockStatus::factorized(kernel);
        status.precision = precision;
        (factor, status)
    };
    match kernel {
        KernelChoice::GaussHuard | KernelChoice::GaussHuardT => {
            let layout = if kernel == KernelChoice::GaussHuardT {
                GhLayout::Transposed
            } else {
                GhLayout::Normal
            };
            let mat = DenseMat::from_col_major(n, n, &narrow_slice::<T, S>(block));
            match gh_factorize(&mat, layout) {
                Ok(f) => factorized(BlockFactor::Gh(S::store_gh(f)), S::STORAGE),
                Err(e) => fallback(e),
            }
        }
        KernelChoice::GjeInvert => match gje_invert(&DenseMat::from_col_major(n, n, block)) {
            Ok(inv) => {
                let inv = inv.as_slice().to_vec();
                factorized(BlockFactor::Inv { n, inv }, StoragePrecision::Native)
            }
            Err(e) => fallback(e),
        },
        KernelChoice::Cholesky => match potrf(&DenseMat::from_col_major(n, n, block)) {
            Ok(f) => factorized(BlockFactor::Chol(f), StoragePrecision::Native),
            Err(e) => fallback(e),
        },
        KernelChoice::Lu => {
            let mut lu = narrow_slice::<T, S>(block);
            match scratch.getrf(n, &mut lu) {
                Ok(step_of_row) => {
                    let perm = Permutation::from_step_of_row(step_of_row);
                    let lu = S::store_vec(lu);
                    factorized(BlockFactor::Lu { lu, perm }, S::STORAGE)
                }
                Err(e) => fallback(e),
            }
        }
    }
}

/// Per-chunk working-set budget for interleaved classes. The lane
/// kernel eliminates one `W`-slot group at a time out of a packed copy
/// of the group, so it reads and writes the chunk once; the budget keeps
/// the worker's staging copy of the chunk in L2 between the pack that
/// writes it and the GETRF that reads it back, and bounds the unit of
/// work the thread pool divides a class into.
const INTERLEAVED_CHUNK_BYTES: usize = 128 * 1024;

/// Slots per interleaved chunk: bound `n² · slots · sizeof(T)` by the
/// cache budget, but never fewer than 8 slots. The result is *not* a
/// multiple of the lane width in general (f64, n = 33: 15 slots, one
/// 8-group and 7 slots at W = 1), and rounding it down to one gained
/// nothing on `batch_ragged` (EXPERIMENTS.md §N.4): the W = 1 instance
/// of the lane GETRF vectorizes along rows instead of across slots.
fn interleaved_chunk_slots<T>(n: usize) -> usize {
    let block_bytes = (n * n).max(1) * std::mem::size_of::<T>();
    (INTERLEAVED_CHUNK_BYTES / block_bytes).max(8)
}

/// One interleaved chunk (a span of one size class) as its worker
/// receives it: the members, ascending, and the chunk's own ranges of
/// the class slab's value and pivot arrays.
struct ChunkJob<'s, S> {
    n: usize,
    members: &'s [usize],
    data: &'s mut [S],
    piv: &'s mut [usize],
}

/// What one worker thread keeps for the whole factorize call: the
/// staging slab a chunk is packed into and factorized in, the member
/// blocks of the chunk at hand, and the lane kernel's scratch.
struct ChunkScratch<'a, T, S> {
    staging: Vec<S>,
    members: Vec<&'a [T]>,
    lanes: LaneGetrfScratch<S>,
}

/// Per failed slot of a factorized chunk, ascending: the slot, the
/// error and the block's original diagonal.
type ChunkFailures<T> = Vec<(usize, FactorError, Vec<T>)>;

/// Transpose `count` column-major blocks into element-interleaved
/// lanes, narrowing while gathering: lane `e` of `lanes` collects
/// element `e` of every member (`members()` walks them in slot order),
/// written contiguously.
fn pack_lanes<'m, X: Scalar, S: Stored<X>, I: Iterator<Item = &'m [X]>>(
    count: usize,
    lanes: &mut [S],
    members: impl Fn() -> I,
) {
    if count == 0 {
        return;
    }
    for (e, lane) in lanes.chunks_exact_mut(count).enumerate() {
        for (dst, blk) in lane.iter_mut().zip(members()) {
            *dst = S::narrow(blk[e]);
        }
    }
}

/// Factorize one interleaved chunk in storage scalar `S`: pack the
/// members into the worker's staging slab — narrowing *while
/// gathering*, one strided read of the blocks and one contiguous write
/// — out of the borrowed batch or, with `originals` gone (the in-place
/// case), out of the chunk's own range, where they sit back to back;
/// run the class-wide sweep there; write the chunk's range once. Slots
/// are numerically independent, so chunking never changes results —
/// only locality and how much parallelism the class exposes.
///
/// A failed slot's scalar-Jacobi fallback needs the block's *original*
/// diagonal, and in place the range is the only copy of it: the failed
/// slots' diagonals are read before the range is overwritten.
///
/// Nothing but those leaves the worker thread: a healthy chunk must
/// hand the calling thread no small heap block of the worker's to free.
/// One such block parked in the caller's allocator cache keeps glibc
/// from returning the worker's heap, and then thread timing decides
/// what the next factorization finds resident (EXPERIMENTS.md §J).
fn factor_interleaved_chunk<'a, T: Scalar, S: Stored<T>>(
    originals: Option<&'a MatrixBatch<T>>,
    job: ChunkJob<'_, S>,
    scratch: &mut ChunkScratch<'a, T, S>,
) -> ChunkFailures<T> {
    let ChunkJob {
        n,
        members,
        data,
        piv,
    } = job;
    let _span = vbatch_rt::span!("factorize.chunk", n * members.len());
    let (count, nn) = (members.len(), n * n);
    let staging = &mut scratch.staging[..data.len()];
    match originals {
        Some(blocks) => {
            scratch.members.clear();
            scratch
                .members
                .extend(members.iter().map(|&m| blocks.block(m)));
            pack_lanes(count, staging, || scratch.members.iter().copied());
        }
        None => pack_lanes::<S, S, _>(count, staging, || data.chunks_exact(nn)),
    }
    let errs = getrf_interleaved_class_simd_scratch(n, count, staging, piv, &mut scratch.lanes);
    let failed = errs
        .iter()
        .enumerate()
        .filter_map(|(slot, err)| {
            let error = err.clone()?;
            let diag = match originals {
                Some(_) => block_diag(n, scratch.members[slot]),
                None => block_diag(n, &data[slot * nn..(slot + 1) * nn])
                    .into_iter()
                    .map(<S as Stored<T>>::widen)
                    .collect(),
            };
            Some((slot, error, diag))
        })
        .collect();
    data.copy_from_slice(staging);
    failed
}

/// A batch as [`factorize_cpu`] splits it: the blocked blocks in block
/// order, the interleaved ones grouped by order (each class in block
/// order), and the chunks, each `(order, range of members)`.
struct Partition {
    sizes: Vec<usize>,
    blocked: Vec<usize>,
    members: Vec<usize>,
    chunks: Vec<(usize, Range<usize>)>,
}

/// The factorization phase in storage scalar `S`: one isolated
/// factorization per blocked block (the worker narrows straight out of
/// the shared batch), one class-wide sweep per interleaved chunk; the
/// factorized classes over `values` become the batch's slab through
/// `store`.
///
/// The chunks are laid out back to back in `values` in the order
/// given. With `originals` the chunks gather their members out of the
/// batch into a slab of their own; without, `values` *is* the batch's
/// value array and the caller has ordered the chunks so that each one's
/// range is exactly its members' (see [`factorize_cpu`]). Either way
/// each worker thread packs, factorizes and writes back through one
/// [`ChunkScratch`] of its own, and the ranges are disjoint `&mut`
/// borrows of the two arrays.
fn factorize_in<T: Scalar, S: Stored<T>>(
    originals: Option<&MatrixBatch<T>>,
    part: Partition,
    plan: &BatchPlan,
    mut values: Vec<S>,
    parallel: bool,
    store: impl FnOnce(ClassSlab<S>) -> Storage<ClassSlab<T>, ClassSlab<T::Lower>>,
) -> FactorizedBatch<T> {
    let Partition {
        sizes,
        blocked,
        members,
        chunks,
    } = part;
    // every block is blocked or a chunk member, so every entry is set
    // below
    let mut homes = vec![Home::Record(u32::MAX); sizes.len()];
    for (r, &i) in blocked.iter().enumerate() {
        homes[i] = Home::Record(r as u32);
    }
    // one contiguous run of blocked blocks per worker thread, each run
    // on one per-block scratch
    let block_run = |run: &[usize]| -> Vec<Record<T>> {
        let mut scratch = GetrfScratch::new();
        run.iter()
            .map(|&i| {
                let blocks = originals.expect("a blocked block needs its original");
                let _span = vbatch_rt::span!("factorize.block", sizes[i]);
                let kernel = plan.class(sizes[i]).kernel;
                let (factor, status) =
                    factor_block::<T, S>(sizes[i], blocks.block(i), kernel, &mut scratch);
                Record { factor, status }
            })
            .collect()
    };
    let mut records: Vec<Record<T>> = if parallel && blocked.len() > 1 {
        let per_worker = blocked.len().div_ceil(num_threads().max(1));
        let runs: Vec<&[usize]> = blocked.chunks(per_worker).collect();
        par_map_vec(runs, block_run).into_iter().flatten().collect()
    } else {
        block_run(&blocked)
    };

    // carve each chunk's ranges, then deal the chunks out in contiguous
    // runs, one per worker thread
    let pivot_elems = chunks.iter().map(|(n, m)| n * m.len()).sum();
    let mut pivots = vec![0usize; pivot_elems];
    let workers = if parallel { num_threads().max(1) } else { 1 };
    let per_worker = chunks.len().div_ceil(workers).max(1);
    let mut runs: Vec<Vec<ChunkJob<'_, S>>> = Vec::new();
    let (mut rest, mut rest_piv) = (values.as_mut_slice(), pivots.as_mut_slice());
    for (i, (n, range)) in chunks.iter().enumerate() {
        let (data, tail) = std::mem::take(&mut rest).split_at_mut(n * n * range.len());
        let (piv, tail_piv) = std::mem::take(&mut rest_piv).split_at_mut(n * range.len());
        (rest, rest_piv) = (tail, tail_piv);
        if i % per_worker == 0 {
            runs.push(Vec::with_capacity(per_worker));
        }
        let run = runs.last_mut().expect("a run was opened for chunk 0");
        run.push(ChunkJob {
            n: *n,
            members: &members[range.clone()],
            data,
            piv,
        });
    }
    assert!(rest.is_empty(), "the chunks must tile the class slab");

    let run_work = |jobs: Vec<ChunkJob<'_, S>>| -> Vec<ChunkFailures<T>> {
        let staging_elems = jobs.iter().map(|j| j.data.len()).max().unwrap_or(0);
        let mut scratch = ChunkScratch {
            staging: vec![S::ZERO; staging_elems],
            members: Vec::new(),
            lanes: LaneGetrfScratch::new(),
        };
        jobs.into_iter()
            .map(|job| factor_interleaved_chunk(originals, job, &mut scratch))
            .collect()
    };
    let failures: Vec<Vec<ChunkFailures<T>>> = if parallel {
        par_map_vec(runs, run_work)
    } else {
        runs.into_iter().map(run_work).collect()
    };

    // the chunks came back in the order they were carved: back to back
    let mut classes = Vec::with_capacity(chunks.len());
    let (mut at, mut piv_at) = (0usize, 0usize);
    for ((n, range), failed) in chunks.iter().zip(failures.into_iter().flatten()) {
        let data = at..at + n * n * range.len();
        let piv = piv_at..piv_at + n * range.len();
        (at, piv_at) = (data.end, piv.end);
        let class = classes.len() as u32;
        let mut failed = failed.into_iter().peekable();
        for (slot, &blk) in members[range.clone()].iter().enumerate() {
            homes[blk] = match failed.next_if(|(s, ..)| *s == slot) {
                None => Home::Slot {
                    class,
                    slot: slot as u32,
                },
                Some((_, error, diag)) => {
                    let (factor, sanitized) = scalar_jacobi_from_diag(&diag);
                    let kernel = plan.class(*n).kernel;
                    let status = BlockStatus::fallback(kernel, error, sanitized, *n);
                    records.push(Record { factor, status });
                    Home::Record(records.len() as u32 - 1)
                }
            };
        }
        classes.push(InterleavedLuClass {
            n: *n,
            members: range.clone(),
            data,
            piv,
        });
    }
    let slab = store(ClassSlab::new(values, pivots, members, classes));
    FactorizedBatch::new(sizes, homes, records, slab)
}

/// Factorize on the host, writing the factor store directly: a record
/// per blocked block and per failed slot, a `(class, slot)` for every
/// clean member of an interleaved chunk ([`FactorizedBatch`]).
///
/// The batch arrives by value, and where nothing reads the originals
/// afterwards and nothing would be left dead in them the factors are
/// built *in its value array*: native storage (`FullDp`, or the `f32`
/// floor), [`HealthPolicy::Off`], and every block a member of an
/// interleaved chunk whose members are consecutive block indices — then
/// a chunk's `count · n²` elements of the slab are exactly its members'
/// blocks, and the chunks, taken in block order, tile the array. Every
/// populous uniform batch, every SPIKE partition batch and any batch
/// stored by order whose classes all interleave is on that side.
/// Otherwise (scattered members, a blocked class, lowered storage,
/// guarded triage) the chunks gather into one fresh slab and the
/// originals stay readable for the passes that need them.
///
/// [`HealthPolicy::Off`]: crate::plan::HealthPolicy::Off
pub(crate) fn factorize_cpu<T: Scalar>(
    blocks: MatrixBatch<T>,
    plan: &BatchPlan,
    parallel: bool,
    stats: &mut ExecStats,
) -> FactorizedBatch<T> {
    assert_eq!(plan.len(), blocks.len(), "plan does not match batch");
    // homes index classes, slots and records as u32
    assert!(u32::try_from(blocks.len()).is_ok(), "too many blocks");
    let _span = vbatch_rt::span!("exec.factorize", blocks.len());
    let t0 = Instant::now();
    stats.add_flops(blocks.getrf_flops());
    let sizes = blocks.sizes().to_vec();

    // Partition blocks by the plan's per-class layout choice; the
    // interleaved ones grouped by order, each class in block order
    let (mut members, blocked): (Vec<usize>, Vec<usize>) =
        (0..sizes.len()).partition(|&i| plan.class(sizes[i]).layout == ClassLayout::Interleaved);
    members.sort_by_key(|&i| sizes[i]);
    stats.record_layout(ClassLayout::Blocked, blocked.len() as u64);
    stats.record_layout(ClassLayout::Interleaved, members.len() as u64);

    // Interleaved classes: split each class into cache-sized chunks
    // (further divided for the thread pool when parallel).
    let chunk_target = if parallel { num_threads().max(1) } else { 1 };
    let mut chunks: Vec<(usize, Range<usize>)> = Vec::new();
    let mut start = 0;
    for class in members.chunk_by(|&a, &b| sizes[a] == sizes[b]) {
        let (n, end) = (sizes[class[0]], start + class.len());
        let per_thread = class.len().div_ceil(chunk_target);
        let chunk_len = per_thread.min(interleaved_chunk_slots::<T>(n));
        for lo in (start..end).step_by(chunk_len) {
            chunks.push((n, lo..end.min(lo + chunk_len)));
        }
        start = end;
    }
    let slab_elems: usize = chunks.iter().map(|(n, m)| n * n * m.len()).sum();

    // Precision policy, dispatched once for the whole phase: the lowered
    // instance only exists where the scalar actually has a narrower
    // storage format; at the f32 floor every policy degenerates to the
    // (bitwise-preserved) native instance.
    let lowered = plan.precision().lowers_storage() && T::HAS_LOWER;
    // the in-place rule (see above); members are ascending, so a chunk
    // is consecutive when its ends are `len - 1` apart
    let in_place = !lowered
        && !plan.health().is_guarded()
        && blocked.is_empty()
        && chunks
            .iter()
            .all(|(_, m)| members[m.end - 1] - members[m.start] + 1 == m.len());
    let (originals, native_values) = if in_place {
        // block order: chunk k then starts where its first member does
        chunks.sort_unstable_by_key(|(_, m)| members[m.start]);
        (None, blocks.into_values())
    } else {
        let native_elems = if lowered { 0 } else { slab_elems };
        (Some(blocks), vec![T::ZERO; native_elems])
    };

    let blocks = originals.as_ref();
    let part = Partition {
        sizes,
        blocked,
        members,
        chunks,
    };
    let mut batch = if lowered {
        let values = vec![<T::Lower as Scalar>::ZERO; slab_elems];
        factorize_in(blocks, part, plan, values, parallel, Storage::Lower)
    } else {
        factorize_in(blocks, part, plan, native_values, parallel, Storage::Native)
    };
    // the passes that read the originals; in place there are none to
    // run (native storage, health off)
    if let Some(blocks) = originals {
        if lowered && plan.precision() == PrecisionPolicy::MixedPromote {
            crate::health::promote_unsafe_blocks(&blocks, &mut batch);
        }
        crate::health::triage_batch(&blocks, &mut batch, plan.health());
        if lowered {
            // lowered factors refine against the retained original; the
            // native path consumes it as before
            batch.retain(blocks);
        }
    }
    batch.book(stats);
    stats.add_phase(Phase::Factorize, t0.elapsed());
    batch
}

/// Run every unit of a prepared apply against the flat vector — the one
/// CPU apply path, with zero heap allocations either way: every
/// temporary lives in the prepared scratch slab, locked once per apply.
/// When `parallel`, and above [`APPLY_GRAIN_ELEMS`] per thread, each pool
/// thread takes a contiguous run of units of about equal factor elements.
fn run_prepared<T: Scalar>(
    factors: &FactorizedBatch<T>,
    prepared: &PreparedApply<T>,
    v: &mut [T],
    parallel: bool,
) {
    assert_eq!(
        v.len(),
        prepared.total(),
        "prepared apply does not match vector"
    );
    let (units, work) = prepared.units();
    let mut slab = prepared.lock_scratch();
    if parallel {
        let ptr = FlatVecPtr::new(v);
        let slab = FlatVecPtr::new(&mut slab);
        run_ranges(work, APPLY_GRAIN_ELEMS, &|run| {
            for unit in &units[run] {
                // SAFETY: each unit touches a disjoint set of segments
                // (PreparedApply invariant), so the reborrowed views from
                // concurrent units never alias.
                let view = unsafe { ptr.slice() };
                // SAFETY: `PreparedApply::new` hands the units' scratch
                // ranges out back to back, so they are disjoint by
                // construction and no two units share a slab element.
                let scratch = unsafe { slab.range(unit.scratch()) };
                run_apply_unit(factors, unit, view, scratch);
            }
        });
    } else {
        for unit in units {
            run_apply_unit(factors, unit, v, &mut slab[unit.scratch()]);
        }
    }
}

fn solve_flops<T: Scalar>(factors: &FactorizedBatch<T>) -> f64 {
    factors.sizes().iter().map(|&n| 2.0 * (n * n) as f64).sum()
}

/// One-shot [`Backend::solve`]: prepare, then the prepared apply path,
/// accounted as [`Phase::Solve`].
pub(crate) fn solve_cpu<T: Scalar>(
    factors: &FactorizedBatch<T>,
    rhs: &mut VectorBatch<T>,
    parallel: bool,
    stats: &mut ExecStats,
) {
    assert_eq!(factors.sizes(), rhs.sizes(), "factors do not match rhs");
    let _span = vbatch_rt::span!("exec.solve", factors.len());
    let t0 = Instant::now();
    let prepared = PreparedApply::new(factors);
    run_prepared(factors, &prepared, rhs.as_mut_slice(), parallel);
    stats.add_flops(solve_flops(factors));
    stats.add_phase(Phase::Solve, t0.elapsed());
}

/// Steady-state [`Backend::solve_prepared`], accounted as
/// [`Phase::Apply`].
pub(crate) fn solve_prepared_cpu<T: Scalar>(
    factors: &FactorizedBatch<T>,
    prepared: &PreparedApply<T>,
    v: &mut [T],
    parallel: bool,
    stats: &mut ExecStats,
) {
    let _span = vbatch_rt::span!("exec.apply", prepared.unit_count());
    let t0 = Instant::now();
    run_prepared(factors, prepared, v, parallel);
    stats.add_flops(solve_flops(factors));
    stats.add_phase(Phase::Apply, t0.elapsed());
    stats.record_apply(prepared.workspace_hwm_elems());
}

/// Explicit block inverses: [`factor_block`]'s GJE arm per block, a
/// failed block's scalar-Jacobi fallback written out as a diagonal
/// "inverse".
pub(crate) fn invert_cpu<T: Scalar>(
    blocks: &MatrixBatch<T>,
    parallel: bool,
    stats: &mut ExecStats,
) -> (MatrixBatch<T>, Vec<BlockStatus>) {
    let _span = vbatch_rt::span!("exec.invert", blocks.len());
    let t0 = Instant::now();
    let sizes = blocks.sizes();
    let work = |i: usize| {
        let block = blocks.block(i);
        factor_block::<T, T>(
            sizes[i],
            block,
            KernelChoice::GjeInvert,
            &mut GetrfScratch::new(),
        )
    };
    let results: Vec<(BlockFactor<T>, BlockStatus)> = if parallel {
        par_map_vec((0..blocks.len()).collect(), work)
    } else {
        (0..blocks.len()).map(work).collect()
    };
    let mut out = MatrixBatch::zeros(sizes);
    let mut status = Vec::with_capacity(results.len());
    for (i, (factor, st)) in results.into_iter().enumerate() {
        let (n, dst) = (sizes[i], out.block_mut(i));
        match factor {
            BlockFactor::Inv { inv, .. } => dst.copy_from_slice(&inv),
            BlockFactor::ScalarJacobi { inv_diag } => {
                for (k, v) in inv_diag.into_iter().enumerate() {
                    dst[k * n + k] = v;
                }
            }
            _ => unreachable!("the GJE arm yields an inverse or its fallback"),
        }
        stats.record_status(&st, 1);
        status.push(st);
    }
    stats.add_flops(sizes.iter().map(|&n| 2.0 * (n * n * n) as f64).sum());
    stats.add_phase(Phase::Invert, t0.elapsed());
    (out, status)
}

pub(crate) fn gemv_cpu<T: Scalar>(
    blocks: &MatrixBatch<T>,
    x: &VectorBatch<T>,
    y: &mut VectorBatch<T>,
    parallel: bool,
    stats: &mut ExecStats,
) {
    let _span = vbatch_rt::span!("exec.gemv", blocks.len());
    let t0 = Instant::now();
    assert_eq!(blocks.sizes(), x.sizes());
    assert_eq!(blocks.sizes(), y.sizes());
    let work = |(i, out): (usize, &mut [T])| gemv(blocks.size(i), blocks.block(i), x.seg(i), out);
    let segs = y.segs_mut().into_iter().enumerate();
    if parallel {
        par_map_vec(segs.collect(), work);
    } else {
        segs.for_each(work);
    }
    stats.add_flops(blocks.sizes().iter().map(|&n| 2.0 * (n * n) as f64).sum());
    stats.add_phase(Phase::Gemv, t0.elapsed());
}

pub(crate) fn extract_cpu<T: Scalar>(
    a: &CsrMatrix<T>,
    part: &BlockPartition,
    stats: &mut ExecStats,
) -> MatrixBatch<T> {
    let _span = vbatch_rt::span!("exec.extract", part.len());
    let t0 = Instant::now();
    let batch = extract_diag_blocks(a, part);
    stats.add_phase(Phase::Extract, t0.elapsed());
    batch
}

/// The host backends are one implementation under one thread bit:
/// whether factorize, invert, GEMV, the prepared solve and the
/// triangular sweep fan out over the thread pool.
macro_rules! impl_cpu_backend {
    ($ty:ty, $name:literal, parallel: $parallel:literal) => {
        impl<T: Scalar> Backend<T> for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn extract_blocks(
                &self,
                a: &CsrMatrix<T>,
                part: &BlockPartition,
                stats: &mut ExecStats,
            ) -> MatrixBatch<T> {
                extract_cpu(a, part, stats)
            }

            fn factorize(
                &self,
                blocks: MatrixBatch<T>,
                plan: &BatchPlan,
                stats: &mut ExecStats,
            ) -> FactorizedBatch<T> {
                factorize_cpu(blocks, plan, $parallel, stats)
            }

            fn solve(
                &self,
                factors: &FactorizedBatch<T>,
                rhs: &mut VectorBatch<T>,
                stats: &mut ExecStats,
            ) {
                solve_cpu(factors, rhs, $parallel, stats)
            }

            fn solve_prepared(
                &self,
                factors: &FactorizedBatch<T>,
                prepared: &PreparedApply<T>,
                v: &mut [T],
                stats: &mut ExecStats,
            ) {
                solve_prepared_cpu(factors, prepared, v, $parallel, stats)
            }

            fn sweep_triangular(
                &self,
                tri: &crate::tri::BlockTriangular<T>,
                sched: &vbatch_sparse::LevelSchedule,
                v: &mut [T],
                stats: &mut ExecStats,
            ) {
                crate::tri::sweep_cpu(tri, sched, v, $parallel, stats)
            }

            fn invert(
                &self,
                blocks: &MatrixBatch<T>,
                stats: &mut ExecStats,
            ) -> (MatrixBatch<T>, Vec<BlockStatus>) {
                invert_cpu(blocks, $parallel, stats)
            }

            fn apply_gemv(
                &self,
                blocks: &MatrixBatch<T>,
                x: &VectorBatch<T>,
                y: &mut VectorBatch<T>,
                stats: &mut ExecStats,
            ) {
                gemv_cpu(blocks, x, y, $parallel, stats)
            }
        }
    };
}

impl_cpu_backend!(CpuSequential, "cpu-seq", parallel: false);
impl_cpu_backend!(CpuSimd, "cpu-simd", parallel: true);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanMethod;
    use vbatch_rt::SmallRng;

    fn random_batch(sizes: &[usize], seed: u64) -> MatrixBatch<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batch = MatrixBatch::zeros(sizes);
        for i in 0..batch.len() {
            let n = sizes[i];
            let block = batch.block_mut(i);
            for c in 0..n {
                for r in 0..n {
                    let v = rng.gen_range(-1.0..1.0);
                    block[c * n + r] = if r == c { v + n as f64 } else { v };
                }
            }
        }
        batch
    }

    #[test]
    fn factorize_solve_roundtrip() {
        let sizes = [3usize, 7, 12, 1, 24];
        let batch = random_batch(&sizes, 42);
        let plan = BatchPlan::auto::<f64>(&sizes);
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
        assert_eq!(fact.fallback_count(), 0);

        // rhs = A * ones → solution ≈ ones
        let ones = VectorBatch::from_flat(&sizes, &vec![1.0; sizes.iter().sum()]);
        let mut rhs = VectorBatch::zeros(&sizes);
        CpuSequential.apply_gemv(&batch, &ones, &mut rhs, &mut stats);
        CpuSequential.solve(&fact, &mut rhs, &mut stats);
        for v in rhs.as_slice() {
            assert!((v - 1.0).abs() < 1e-9, "got {v}");
        }
        assert!(stats.flops > 0.0);
        assert!(!stats.histogram_compact().is_empty());
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let sizes = [5usize, 5, 18, 30, 2, 9];
        let batch = random_batch(&sizes, 7);
        for method in [
            PlanMethod::Auto,
            PlanMethod::Lu,
            PlanMethod::GaussHuard,
            PlanMethod::GaussHuardT,
            PlanMethod::GjeInvert,
        ] {
            let plan = BatchPlan::for_method::<f64>(&sizes, method);
            let mut s1 = ExecStats::new();
            let mut s2 = ExecStats::new();
            let f1 = CpuSequential.factorize(batch.clone(), &plan, &mut s1);
            let f2 = CpuSimd.factorize(batch.clone(), &plan, &mut s2);
            let total: usize = sizes.iter().sum();
            let flat: Vec<f64> = (0..total).map(|i| (i % 13) as f64 - 6.0).collect();
            let mut r1 = VectorBatch::from_flat(&sizes, &flat);
            let mut r2 = VectorBatch::from_flat(&sizes, &flat);
            CpuSequential.solve(&f1, &mut r1, &mut s1);
            CpuSimd.solve(&f2, &mut r2, &mut s2);
            // same kernels on the same data: bitwise identical
            assert_eq!(r1.as_slice(), r2.as_slice(), "{method:?}");
        }
    }

    #[test]
    fn singular_block_degrades_not_aborts() {
        let sizes = [4usize, 3, 5];
        let mut batch = random_batch(&sizes, 11);
        // make the middle block exactly singular (two equal rows)
        {
            let n = 3;
            let block = batch.block_mut(1);
            for c in 0..n {
                block[c * n + 1] = block[c * n];
            }
        }
        let plan = BatchPlan::auto::<f64>(&sizes);
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch, &plan, &mut stats);
        assert_eq!(fact.fallback_count(), 1);
        assert_eq!(stats.kernel_histogram().values().sum::<u64>(), 2);
        assert!(fact.status(1).is_fallback());
        assert!(!fact.status(0).is_fallback());
        assert!(!fact.status(2).is_fallback());
        // solving still works and leaves finite values everywhere
        let total: usize = sizes.iter().sum();
        let mut rhs = VectorBatch::from_flat(&sizes, &vec![1.0; total]);
        CpuSequential.solve(&fact, &mut rhs, &mut stats);
        assert!(rhs.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn interleaved_layout_matches_blocked_bitwise() {
        use vbatch_core::BatchLayout;
        // 12 blocks of order 6 + a ragged tail of order 9
        let mut sizes = vec![6usize; 12];
        sizes.push(9);
        let mut batch = random_batch(&sizes, 23);
        // one singular block inside the interleaved class
        {
            let n = 6;
            let block = batch.block_mut(4);
            for c in 0..n {
                block[c * n + 2] = block[c * n + 1];
            }
        }
        let blocked_plan = BatchPlan::auto_with_layout::<f64>(&sizes, BatchLayout::Blocked);
        let il_plan = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 2 },
        );
        assert_eq!(il_plan.class(6).layout, ClassLayout::Interleaved);
        assert_eq!(il_plan.class(9).layout, ClassLayout::Blocked);

        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| (i % 11) as f64 / 2.0 - 2.0).collect();
        for backend in [&CpuSequential as &dyn Backend<f64>, &CpuSimd] {
            let mut sb = ExecStats::new();
            let mut si = ExecStats::new();
            let fb = backend.factorize(batch.clone(), &blocked_plan, &mut sb);
            let fi = backend.factorize(batch.clone(), &il_plan, &mut si);
            let slab = fi.interleaved().expect("native slots");
            let slots: usize = slab.classes().iter().map(|c| c.count()).sum();
            assert!(slots >= 12);
            assert_eq!(fb.fallback_count(), 1);
            assert_eq!(fi.fallback_count(), 1);
            assert_eq!(si.layout_histogram()["interleaved"], 12);
            assert_eq!(si.layout_histogram()["blocked"], 1);
            // bitwise-identical pivots for every LU block
            for blk in 0..sizes.len() {
                assert_eq!(fb.row_of_step(blk), fi.row_of_step(blk), "block {blk}");
                assert_eq!(fb.status(blk).is_fallback(), fi.status(blk).is_fallback());
            }
            // bitwise-identical solutions
            let mut rb = VectorBatch::from_flat(&sizes, &flat);
            let mut ri = VectorBatch::from_flat(&sizes, &flat);
            backend.solve(&fb, &mut rb, &mut sb);
            backend.solve(&fi, &mut ri, &mut si);
            assert_eq!(rb.as_slice(), ri.as_slice(), "{}", backend.name());
            assert!(ri.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn simd_backend_matches_the_other_host_backends_bitwise() {
        use vbatch_core::BatchLayout;
        // a populous interleavable class (non-multiple of every lane
        // width), a second class, and a ragged blocked tail
        let mut sizes = vec![8usize; 21];
        sizes.extend(std::iter::repeat_n(16, 9));
        sizes.push(30);
        let batch = random_batch(&sizes, 99);
        let plan = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 2 },
        );
        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| (i % 9) as f64 / 2.0 - 2.0).collect();

        let mut s_ref = ExecStats::new();
        let f_ref = CpuSequential.factorize(batch.clone(), &plan, &mut s_ref);
        let mut r_ref = VectorBatch::from_flat(&sizes, &flat);
        CpuSequential.solve(&f_ref, &mut r_ref, &mut s_ref);

        let mut s = ExecStats::new();
        let f = CpuSimd.factorize(batch, &plan, &mut s);
        for blk in 0..sizes.len() {
            assert_eq!(f_ref.row_of_step(blk), f.row_of_step(blk), "block {blk}");
        }
        let mut r = VectorBatch::from_flat(&sizes, &flat);
        CpuSimd.solve(&f, &mut r, &mut s);
        assert_eq!(r_ref.as_slice(), r.as_slice());

        // prepared path is bitwise identical too
        let prep = CpuSimd.prepare_apply(&f);
        let mut v = flat.clone();
        CpuSimd.solve_prepared(&f, &prep, &mut v, &mut s);
        assert_eq!(v.as_slice(), r_ref.as_slice());
    }

    #[test]
    fn invert_matches_solve() {
        let sizes = [6usize, 11];
        let batch = random_batch(&sizes, 3);
        let mut stats = ExecStats::new();
        let (inv, status) = CpuSimd.invert(&batch, &mut stats);
        assert!(status.iter().all(|s| !s.is_fallback()));
        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| 1.0 + i as f64).collect();
        let x = VectorBatch::from_flat(&sizes, &flat);
        let mut via_inv = VectorBatch::zeros(&sizes);
        CpuSimd.apply_gemv(&inv, &x, &mut via_inv, &mut stats);

        let plan = BatchPlan::auto::<f64>(&sizes);
        let fact = CpuSequential.factorize(batch, &plan, &mut stats);
        let mut via_solve = VectorBatch::from_flat(&sizes, &flat);
        CpuSequential.solve(&fact, &mut via_solve, &mut stats);
        for (a, b) in via_inv.as_slice().iter().zip(via_solve.as_slice()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    /// A singular and a NaN block degrade to diagonal "inverses" with the
    /// statuses `factor_block` gives them; the digest of the returned
    /// matrices was recorded before `invert_cpu` went through it.
    #[test]
    fn invert_degrades_singular_and_nan_blocks_bitwise() {
        use vbatch_core::FactorError;
        let sizes = [4usize, 3, 5];
        let mut batch = random_batch(&sizes, 17);
        // block 1: row 1 is twice row 0, exactly singular in GJE's
        // arithmetic; block 2: a NaN on the diagonal
        let singular = [1.0, 2.0, 1.0, 2.0, 4.0, 1.0, 3.0, 6.0, 1.0];
        batch.block_mut(1).copy_from_slice(&singular);
        batch.block_mut(2)[2 * 5 + 2] = f64::NAN;
        let digest = |v: &[f64]| {
            v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let kernel = KernelChoice::GjeInvert;
        let expected = [
            BlockStatus::factorized(kernel),
            BlockStatus::fallback(kernel, FactorError::SingularPivot { step: 2 }, 0, 3),
            BlockStatus::fallback(kernel, FactorError::NonFinite { row: 2, col: 2 }, 1, 5),
        ];
        for backend in [&CpuSequential as &dyn Backend<f64>, &CpuSimd] {
            let mut stats = ExecStats::new();
            let (inv, status) = backend.invert(&batch, &mut stats);
            let got = digest(inv.as_slice());
            assert_eq!(
                got,
                0x9222_c380_d12c_cde0,
                "{} gives {got:#018x}",
                backend.name()
            );
            assert_eq!(status, expected, "{}", backend.name());
            // the fallback blocks stay out of the kernel histogram
            assert_eq!(stats.kernel_histogram().values().sum::<u64>(), 1);
        }
    }
}
