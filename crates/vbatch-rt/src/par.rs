//! A persistent thread pool with one primitive, and an ordered map on
//! top of it.
//!
//! The batched workloads in this workspace are embarrassingly parallel
//! collections of independent small problems, and the ones that matter
//! recur every Krylov iteration — a few tens of microseconds of work
//! per call. [`run`] publishes a closure to `num_threads() − 1` workers
//! that were started once and joins in as thread 0; a hot round trip is
//! well under a microsecond and allocates nothing, so a prepared apply
//! or an SpMV can afford it on every iteration.
//!
//! What a share computes must not depend on who runs it. Work is always
//! split by share *index* out of a fixed count — a pure function of the
//! sizes and the host, never of scheduling — and then any thread may
//! run any share: worker `t` takes share `t` if it gets there first,
//! the caller takes every share nobody has started, and a caller that
//! finds the pool taken (concurrent callers, a share that calls [`run`]
//! again) runs all of them itself, in order. A worker that is parked,
//! or whose core another process has, therefore delays nothing it has
//! not begun: the worst case is the sequential loop, not a stall.
//!
//! The job hand-off and the disjoint split of [`run_balanced`] are the
//! only `unsafe` code; [`par_map_vec`] is safe code over [`run`].

use std::any::Any;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// Number of threads a parallel call is split over (the caller
/// included). Asked of the OS once: `available_parallelism` is a handful
/// of cgroup file reads per call.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many threads should share `work` units when a thread's share
/// must be at least `grain`: a pure function of the sizes and the host.
pub fn shares(work: usize, grain: usize) -> usize {
    (work / grain.max(1)).clamp(1, num_threads())
}

/// The closure of a [`run`] as its shares are called.
type Job<'f> = &'f (dyn Fn(usize, usize) + Sync);

/// How long an idle worker polls for the next job before it parks:
/// 20 000 polls, about 200 µs here. A Krylov iteration calls [`run`]
/// every 20–100 µs, so its workers never park and a dispatch is a
/// cache-line hand-over (0.4–0.7 µs round trip, 1–5 at p99); a parked
/// worker needs a futex wake and tens of microseconds to arrive, by
/// which time the caller has usually run its share for it (12 µs, 28
/// at p99) — against the 131–146 µs the scoped threads this replaces
/// paid on every call.
const IDLE_SPINS: u32 = 20_000;

struct Pool {
    /// Held by the caller whose job is current.
    busy: AtomicBool,
    /// Bumped once per job, after `job` and `pending` are written.
    generation: AtomicUsize,
    job: UnsafeCell<Job<'static>>,
    /// `claimed[t]`: the latest generation whose share `t` was taken;
    /// one entry per thread, the caller's included.
    claimed: Box<[AtomicUsize]>,
    /// Shares of the current job that have not finished.
    pending: AtomicUsize,
    /// First panic payload of the current job's shares.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Workers parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

// SAFETY: `job` is the only field that is not `Sync` by itself. It is
// written only by the thread holding `busy`, before the `generation`
// bump that publishes it, and read by a worker only after that worker
// took a share of that very generation (`Pool::claim`), which counts in
// `pending` until the share has finished; the holder does not release
// `busy` — so nobody writes `job` again — before `pending` is zero.
// The pointee is `Sync`, so calling it from several threads is allowed.
unsafe impl Sync for Pool {}

fn noop(_: usize, _: usize) {}

/// The process-wide pool, its workers started on first use. They are
/// never joined: they hold nothing but the `&'static Pool` and park
/// when idle, and the process exits under them.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = num_threads();
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            busy: AtomicBool::new(false),
            generation: AtomicUsize::new(0),
            job: UnsafeCell::new(&noop),
            claimed: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }));
        for thread in 1..threads {
            std::thread::Builder::new()
                .name(format!("vbatch-par-{thread}"))
                .spawn(move || pool.work(thread))
                .expect("the OS refused a pool worker thread");
        }
        pool
    })
}

impl Pool {
    /// Take share `thread` of job `generation`, if nobody has. A job
    /// ends only when all its shares were taken, and `claimed` never
    /// decreases, so a success means that job is still the current one.
    fn claim(&self, thread: usize, generation: usize) -> bool {
        self.claimed[thread].fetch_max(generation, Ordering::AcqRel) < generation
    }

    /// Run one claimed share of `job` and count it finished.
    fn run_share(&self, job: Job, thread: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(thread, self.claimed.len()))) {
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
        self.pending.fetch_sub(1, Ordering::Release);
    }

    /// A worker's whole life: wait for the next generation, run its own
    /// share of it unless the caller already has.
    fn work(&self, thread: usize) {
        let mut seen = 0;
        loop {
            seen = self.next_generation(seen);
            if self.claim(thread, seen) {
                // SAFETY: this worker holds an unfinished share of job
                // `seen`, so that job is current: `job` was written
                // before the bump to `seen` that this thread observed
                // with `Acquire`, it is not written again, and the
                // closure it refers to stays alive, until `run_share`
                // has counted the share finished (see `dispatch`).
                let job = unsafe { *self.job.get() };
                self.run_share(job, thread);
            }
        }
    }

    /// Block until `generation` differs from `seen`; poll first, park
    /// after [`IDLE_SPINS`].
    fn next_generation(&self, seen: usize) -> usize {
        for spin in 0..IDLE_SPINS {
            let now = self.generation.load(Ordering::Acquire);
            if now != seen {
                return now;
            }
            // Sharing a core with the caller (where the kernel puts a new
            // thread, for about a second), polling would take half of it
            // away from the one thread with work to do.
            if spin % 256 == 255 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        // announce before the last check: `dispatch` bumps `generation`,
        // then reads `sleepers` (both `SeqCst`), so either it sees this
        // worker and notifies under `lock`, or this worker sees the bump
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let now = loop {
            let now = self.generation.load(Ordering::SeqCst);
            if now != seen {
                break now;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        now
    }
}

/// Call `f(thread, threads)` once for every `thread` in `0..threads`,
/// `threads` being [`num_threads`]: share 0 on the caller, the others on
/// the pool's workers or, where a worker has not started its share by
/// the time the caller gets to it, on the caller too. Returns when every
/// share has; allocates nothing.
///
/// If the pool is taken — another thread's `run` is in flight, or this
/// is a share calling `run` again — every share runs on the caller, in
/// order. A panicking share is re-raised here once all shares have
/// finished.
pub fn run(f: &(dyn Fn(usize, usize) + Sync)) {
    dispatch(f, true);
}

/// [`run`], except that share `t` is left to pool thread `t` however
/// late it arrives — for what is per thread rather than per share, like
/// a worker's trace ring. (A pool that is taken still runs every share
/// on the caller.)
pub fn run_on_each_thread(f: &(dyn Fn(usize, usize) + Sync)) {
    dispatch(f, false);
}

fn dispatch(f: Job, steal: bool) {
    let threads = num_threads();
    if threads == 1 {
        return f(0, 1);
    }
    let pool = pool();
    if pool
        .busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return (0..threads).for_each(|thread| f(thread, threads));
    }
    debug_assert_eq!(pool.pending.load(Ordering::Relaxed), 0);
    // SAFETY: only the lifetime changes. A worker calls through the
    // reference only while it holds an unfinished share of this job, and
    // this function neither returns nor unwinds before `pending` is zero,
    // so the closure outlives every use.
    let job: Job<'static> = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(f) };
    // SAFETY: `busy` is held and `pending` is zero, so no worker holds a
    // share and none reads `job` (see the `Sync` impl).
    unsafe { *pool.job.get() = job };
    pool.pending.store(threads, Ordering::Relaxed);
    let generation = pool.generation.fetch_add(1, Ordering::SeqCst) + 1;
    if pool.sleepers.load(Ordering::SeqCst) > 0 {
        let _guard = pool.lock.lock().unwrap_or_else(PoisonError::into_inner);
        pool.wake.notify_all();
    }
    for thread in 0..threads {
        if (thread == 0 || steal) && pool.claim(thread, generation) {
            pool.run_share(f, thread);
        }
    }
    // what is left is running on a worker, or waiting for its own
    let mut spins = 0u32;
    while pool.pending.load(Ordering::Acquire) != 0 {
        // a worker that lost its core to another process finishes sooner
        // if this thread gives its own up
        spins += 1;
        if spins % 1024 == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    let panicked = pool
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    pool.busy.store(false, Ordering::Release);
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
}

/// Index of the first item of part `p` when the items behind `prefix`
/// (see [`run_ranges`]) are cut into `parts` contiguous ranges of about
/// equal weight. Nothing is stored: a cut is one binary search.
fn balanced_cut(prefix: &[usize], p: usize, parts: usize) -> usize {
    let items = prefix.len() - 1;
    if p == 0 {
        return 0;
    }
    if p >= parts {
        return items;
    }
    let total = prefix[items] - prefix[0];
    let target = prefix[0] + (total as u128 * p as u128 / parts as u128) as usize;
    prefix.partition_point(|&w| w < target).min(items)
}

/// Cut the items whose weights have the prefix sums `prefix` (`prefix[i]`
/// = weight before item `i`, one entry past the last item) into at most
/// [`shares`]`(total weight, grain)` contiguous ranges of about equal
/// weight and call `f(range)` for each, one per pool thread; with one
/// part `f(0..items)` runs on the caller. How many parts, and which, is
/// a function of the weights and the host alone. The ranges are
/// disjoint and tile `0..items` in order — [`run_balanced`] hands out
/// `&mut` slices on the strength of that.
pub fn run_ranges(prefix: &[usize], grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
    let items = prefix.len().checked_sub(1).expect("a prefix has an entry");
    let parts = shares(prefix[items].saturating_sub(prefix[0]), grain);
    if parts == 1 {
        return f(0..items);
    }
    // Check the whole chain of cuts here, once. `prefix` is immutable
    // shared data and a cut is a pure function of it, so each thread
    // recomputes exactly the cuts checked here.
    let mut lo = 0;
    for p in 1..=parts {
        let hi = balanced_cut(prefix, p, parts);
        assert!(lo <= hi && hi <= items, "prefix sums must not decrease");
        lo = hi;
    }
    run(&|thread, _| {
        if thread < parts {
            f(balanced_cut(prefix, thread, parts)..balanced_cut(prefix, thread + 1, parts));
        }
    });
}

/// [`run_ranges`] over the elements of `out`, one per item of `prefix`:
/// `f(range, &mut out[range])` for each part.
pub fn run_balanced<T: Send>(
    prefix: &[usize],
    out: &mut [T],
    grain: usize,
    f: &(dyn Fn(Range<usize>, &mut [T]) + Sync),
) {
    let items = out.len();
    assert_eq!(prefix.len(), items + 1, "one prefix entry per item + 1");
    struct Base<T>(*mut T);
    // SAFETY: the pointer is only used to form `&mut` slices of disjoint
    // ranges (see below), which moves the right to write `T`s to the
    // pool threads — `T: Send`.
    unsafe impl<T: Send> Sync for Base<T> {}
    let base = Base(out.as_mut_ptr());
    run_ranges(prefix, grain, &|range| {
        debug_assert!(range.start <= range.end && range.end <= items);
        let base = &base;
        // SAFETY: `run_ranges` calls this once per part with ranges that
        // lie inside `0..items` and do not overlap, and returns only
        // when every call has; `out` stays mutably borrowed by this
        // function until then.
        let part = unsafe { std::slice::from_raw_parts_mut(base.0.add(range.start), range.len()) };
        f(range, part);
    });
}

/// Ordered parallel map over an owned collection: results arrive in
/// input order. One contiguous chunk of items per thread; a plain
/// sequential map for tiny inputs.
pub fn par_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    // one slot per thread: its chunk going in, its results coming out
    let mut it = items.into_iter();
    let slots: Vec<Mutex<(Vec<T>, Vec<U>)>> = (0..threads)
        .map(|_| Mutex::new((it.by_ref().take(chunk).collect(), Vec::new())))
        .collect();
    run(&|thread, _| {
        if let Some(slot) = slots.get(thread) {
            let mut slot = slot.lock().expect("only this share locks its slot");
            slot.1 = std::mem::take(&mut slot.0).into_iter().map(&f).collect();
        }
    });
    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("a panicking share re-raised").1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Barrier};

    /// What `run` must leave behind whoever ran the shares: share `t`
    /// writes `t + 1` into slot `t` of `threads` slots.
    fn run_marks() -> Vec<u64> {
        let marks: Vec<AtomicU64> = (0..num_threads()).map(|_| AtomicU64::new(0)).collect();
        run(&|thread, threads| {
            assert_eq!(threads, marks.len());
            marks[thread].fetch_add(thread as u64 + 1, Ordering::Relaxed);
        });
        marks.into_iter().map(AtomicU64::into_inner).collect()
    }

    fn expected_marks() -> Vec<u64> {
        (1..=num_threads() as u64).collect()
    }

    #[test]
    fn map_preserves_order_over_0_1_and_1000_items() {
        for len in [0usize, 1, 1000] {
            let out = par_map_vec((0..len).collect(), |x: usize| x * 2);
            assert_eq!(out, (0..len).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_is_visited_once() {
        let mut data = vec![0usize; 64];
        let cells: Vec<(usize, &mut usize)> = data.iter_mut().enumerate().collect();
        par_map_vec(cells, |(i, v)| *v += i * i);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn every_share_runs_once_with_its_own_index() {
        for _ in 0..100 {
            assert_eq!(run_marks(), expected_marks());
        }
    }

    #[test]
    fn a_nested_run_returns_the_sequential_result() {
        let inner: Vec<Mutex<Vec<u64>>> =
            (0..num_threads()).map(|_| Mutex::new(Vec::new())).collect();
        run(&|thread, _| *inner[thread].lock().unwrap() = run_marks());
        for marks in inner {
            assert_eq!(marks.into_inner().unwrap(), expected_marks());
        }
    }

    #[test]
    fn eight_concurrent_callers_all_get_the_sequential_result() {
        let start = Arc::new(Barrier::new(8));
        let callers: Vec<_> = (0..8)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        assert_eq!(run_marks(), expected_marks());
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a caller saw a wrong result");
        }
    }

    #[test]
    fn a_panicking_share_propagates_and_the_next_run_works() {
        for bad in [0, num_threads() - 1] {
            let caught = catch_unwind(|| {
                run(&|thread, _| {
                    if thread == bad {
                        panic!("share {thread} fails");
                    }
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(msg, &format!("share {bad} fails"));
            assert_eq!(run_marks(), expected_marks());
        }
    }

    #[test]
    fn balanced_parts_tile_the_items_in_order() {
        // weights 0, 1, 2, ..: the heavy items are at the end
        let items = 5000;
        let mut prefix = vec![0usize; items + 1];
        for i in 0..items {
            prefix[i + 1] = prefix[i] + i;
        }
        for parts in [1, 2, 3, 7] {
            let cuts: Vec<usize> = (0..=parts)
                .map(|p| balanced_cut(&prefix, p, parts))
                .collect();
            assert_eq!((cuts[0], cuts[parts]), (0, items));
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            let share = prefix[items] / parts;
            for w in cuts.windows(2) {
                let weight = prefix[w[1]] - prefix[w[0]];
                assert!(
                    weight.abs_diff(share) <= items,
                    "{parts} parts: {weight} vs {share}"
                );
            }
        }
        // each item is written once, by the part that holds it
        let mut out = vec![0usize; items];
        run_balanced(&prefix, &mut out, 1, &|range, part| {
            assert_eq!(range.len(), part.len());
            for (i, o) in range.zip(part) {
                *o += i + 1;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &o)| o == i + 1));
        // below the grain the whole slice goes to the caller
        run_balanced(&prefix, &mut out, usize::MAX, &|range, _| {
            assert_eq!(range, 0..items);
        });
    }
}
