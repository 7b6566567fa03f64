//! A warm `par::run` touches the heap zero times — the property that
//! lets the prepared apply and the SpMV go through the pool on every
//! Krylov iteration — and the counter that proves it sees exactly the
//! measuring thread and the pool shares it submits. Every test holds
//! [`serial`]: the first one needs the pool to itself.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use vbatch_rt::alloc_guard::enrol;
use vbatch_rt::par::{num_threads, run, run_on_each_thread};
use vbatch_rt::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn warm_runs_allocate_nothing_and_each_thread_can_be_reached() {
    let _serial = serial();
    let _enrolled = enrol();
    let shares = AtomicU64::new(0);
    let count = |_: usize, _: usize| {
        shares.fetch_add(1, Ordering::Relaxed);
    };
    // starts the workers, and lets one park and wake once
    run(&count);
    std::thread::sleep(std::time::Duration::from_millis(5));
    run(&count);
    let before = ALLOC.enrolled_snapshot();
    for _ in 0..1000 {
        run(&count);
    }
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm runs allocated {} bytes",
        after.bytes_since(&before)
    );
    assert_eq!(shares.into_inner(), 1002 * num_threads() as u64);

    // what is per thread reaches every pool thread: the caller does not
    // run a share for a worker that is late, not even a parked one
    std::thread::sleep(std::time::Duration::from_millis(5));
    let ran_on = Mutex::new(HashSet::new());
    run_on_each_thread(&|_, _| {
        ran_on.lock().unwrap().insert(std::thread::current().id());
    });
    assert_eq!(ran_on.into_inner().unwrap().len(), num_threads());
}

/// A thread that never enrolled allocates in a loop for the whole
/// measured window; the window reads zero.
#[test]
fn a_foreign_thread_allocating_during_the_window_counts_nothing() {
    let _serial = serial();
    let stop = AtomicBool::new(false);
    let spun = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(vec![0u8; 64]);
                spun.fetch_add(1, Ordering::Relaxed);
            }
        });
        while spun.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        let _enrolled = enrol();
        let before = ALLOC.enrolled_snapshot();
        let all_before = ALLOC.snapshot();
        let at = spun.load(Ordering::Relaxed);
        while spun.load(Ordering::Relaxed) < at + 1000 {
            std::hint::spin_loop();
        }
        let after = ALLOC.enrolled_snapshot();
        let all_after = ALLOC.snapshot();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(after.allocs_since(&before), 0);
        assert!(
            all_after.allocs_since(&all_before) >= 1000,
            "the process-wide counter still sees the foreign thread"
        );
    });
}

/// A pool job submitted from an enrolled thread allocates on every
/// share, each share on its own pool thread: the window reads one
/// allocation per share, the workers' included.
#[test]
fn a_pool_job_from_an_enrolled_thread_counts_its_allocations() {
    let _serial = serial();
    // the pool's workers start on first use, which allocates
    run(&|_, _| {});
    let _enrolled = enrol();
    let before = ALLOC.enrolled_snapshot();
    run_on_each_thread(&|_, _| {
        std::hint::black_box(vec![0u8; 64]);
    });
    let after = ALLOC.enrolled_snapshot();
    assert_eq!(after.allocs_since(&before), num_threads() as u64);
    assert_eq!(after.bytes_since(&before), 64 * num_threads() as u64);
}
