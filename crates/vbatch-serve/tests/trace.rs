//! What the service books in the trace registry when
//! `vbatch-rt/trace` is compiled in. The registry is process-wide,
//! so this binary holds one test and asserts deltas.

use std::time::Duration;

use vbatch_rt::testgen::hashed_dense;
use vbatch_rt::trace::TraceSnapshot;
use vbatch_serve::{ServeConfig, Service, SolveRequest, TenantId};

fn flushes(snap: &TraceSnapshot, label: &str) -> u64 {
    snap.labeled
        .iter()
        .filter(|l| l.group == "serve.flush" && l.label == label)
        .map(|l| l.value)
        .sum()
}

#[test]
fn a_lone_request_books_one_drained_flush_and_its_queue_wait() {
    let cfg = ServeConfig {
        shards: 1,
        idle_tick: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let service = Service::<f64>::start(cfg).expect("start");
    let before = vbatch_rt::trace::snapshot();
    let outcome = service
        .submit(SolveRequest {
            tenant: TenantId(1),
            n: 5,
            matrix: hashed_dense(5, 3),
            rhs: vec![1.0; 5],
            deadline_ns: service.deadline_in(Duration::from_secs(30)),
        })
        .wait();
    assert!(outcome.is_solved(), "{outcome:?}");
    service.shutdown();
    let after = vbatch_rt::trace::snapshot();
    if !vbatch_rt::trace::enabled() {
        // feature off: nothing is recorded
        assert!(after.labeled.is_empty() && after.histograms.is_empty());
        return;
    }

    let flushed = |label| flushes(&after, label) - flushes(&before, label);
    assert_eq!(flushed("queue_drained"), 1);
    assert_eq!(flushed("drain"), 0, "nothing was left to drain");
    let count = |name| after.span_count(name) - before.span_count(name);
    assert_eq!(count("serve.request_latency"), 1);
    assert_eq!(count("serve.queue_wait"), count("serve.request_latency"));
    let total = |name| after.span_total_ns(name) - before.span_total_ns(name);
    assert!(
        total("serve.queue_wait") <= total("serve.request_latency"),
        "the queue wait is a prefix of the latency"
    );
}
