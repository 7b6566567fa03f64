//! A warm `par::run` touches the heap zero times — the property that
//! lets the prepared apply and the SpMV go through the pool on every
//! Krylov iteration. One test in a binary of its own: the counter is
//! process-wide, and here nothing else runs beside it or takes the pool.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vbatch_rt::par::{num_threads, run, run_on_each_thread};
use vbatch_rt::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warm_runs_allocate_nothing_and_each_thread_can_be_reached() {
    let shares = AtomicU64::new(0);
    let count = |_: usize, _: usize| {
        shares.fetch_add(1, Ordering::Relaxed);
    };
    // starts the workers, and lets one park and wake once
    run(&count);
    std::thread::sleep(std::time::Duration::from_millis(5));
    run(&count);
    let before = ALLOC.snapshot();
    for _ in 0..1000 {
        run(&count);
    }
    let after = ALLOC.snapshot();
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
