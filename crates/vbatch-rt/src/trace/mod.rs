//! Lock-free, allocation-free tracing and metrics for the batched-LU
//! pipeline: phase-level timing evidence in the style of the paper's
//! Figs. 4–7.
//!
//! Three layers:
//!
//! * **event rings** — per-thread fixed-capacity ring buffers of span
//!   begin/end and counter events, timestamped by the monotonic-clamped
//!   clock in [`crate::clock::monotonic_ns`]. Recording is a few
//!   relaxed atomic stores plus an index bump; rings are pre-sized at
//!   setup time ([`reserve_thread_ring`]) so the steady state never
//!   allocates;
//! * **metrics registry** — fixed-size tables of named counters,
//!   labeled counters (the backing store the `ExecStats` histograms
//!   forward into), high-water gauges, and log₂-bucketed span latency
//!   histograms;
//! * **snapshot** — [`TraceSnapshot`] drains everything; it renders
//!   chrome-trace JSON or a human `Display` summary.
//!
//! ## Feature gating
//!
//! Everything is behind this crate's `trace` feature (off by default).
//! Dependents call [`span!`](crate::span)/[`counter!`](crate::counter)
//! and the functions below unconditionally; with the feature off they
//! are inline empty functions over zero-sized types that the optimizer
//! deletes, so no other crate carries cfg-gates. Enable it across the
//! workspace with:
//!
//! ```text
//! cargo test --workspace --features vbatch-rt/trace
//! ```
//!
//! Compiled in, recording allocates nothing after setup, but it is not
//! free, even with the runtime gate closed ([`set_enabled`]`(false)`).
//! Opening the gate adds nothing measurable to the prepared apply; the
//! cost is in compiling the layer in, and the batched factorization
//! shows it. On a 2-vCPU x86-64 guest, the perf ledger's
//! `batch_uniform32` (20 000 blocks of order 32) read a median
//! `time_to_solution_ms` of 97.1 ms with the feature off and 104.3 ms
//! with it compiled in and the gate closed, slower in 5 of 5
//! alternated pairs (an earlier set: 81.1 → 96.0 ms, 4 of 4). That is
//! why the feature stays off by default.
//!
//! ## Usage
//!
//! ```
//! // a span: records begin/end events + a latency histogram entry
//! {
//!     let _span = vbatch_rt::span!("factorize", 4000);
//!     // ... work ...
//! }
//! // a counter bump
//! vbatch_rt::counter!("solver.iterations", 1);
//! // drain and export
//! let snap = vbatch_rt::trace::snapshot();
//! let _json = snap.chrome_trace_json();
//! println!("{snap}");
//! ```

mod export;
#[cfg(not(feature = "trace"))]
mod off;
#[cfg(feature = "trace")]
mod on;

#[cfg(not(feature = "trace"))]
use off as imp;
#[cfg(feature = "trace")]
use on as imp;

pub use export::{
    CounterSample, EventKind, GaugeSample, HistogramSample, LabeledSample, TraceEvent,
    TraceSnapshot, HIST_BUCKETS,
};
pub use imp::{
    dropped, enabled, gauge_max, labeled_add, record_duration, reserve_pool_rings,
    reserve_thread_ring, reset, set_enabled, snapshot, thread_events_written, Site, SpanGuard,
};

/// Open a span at this callsite; the returned guard records the close
/// (and a latency-histogram entry) when dropped. The optional second
/// argument is an opaque `u64` payload (batch size, block count, ...).
/// Compiles to nothing when the `trace` feature is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, 0u64)
    };
    ($name:expr, $payload:expr) => {{
        static __VBT_SITE: $crate::trace::Site = $crate::trace::Site::new($name);
        $crate::trace::SpanGuard::enter(&__VBT_SITE, ($payload) as u64)
    }};
}

/// Bump the named counter at this callsite by `n` (also recorded as a
/// ring event). Compiles to nothing when the `trace` feature is off.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        static __VBT_SITE: $crate::trace::Site = $crate::trace::Site::new($name);
        $crate::trace::Site::add(&__VBT_SITE, ($n) as u64)
    }};
}

/// Record an externally measured duration into the named span
/// histogram without opening a span — the hook `ExecStats::add_phase`
/// forwards through. Compiles to nothing when the `trace` feature is
/// off.
#[macro_export]
macro_rules! duration {
    ($name:expr, $ns:expr) => {{
        static __VBT_SITE: $crate::trace::Site = $crate::trace::Site::new($name);
        $crate::trace::record_duration(&__VBT_SITE, ($ns) as u64)
    }};
}

/// Raise the named high-water gauge at this callsite to at least
/// `value` — the maximum ever recorded is what a snapshot reports
/// ([`TraceSnapshot::gauge`](crate::trace::TraceSnapshot::gauge)).
/// For depth-style metrics (queue depth, in-flight count) where the
/// peak matters, not the sum. Compiles to nothing when the `trace`
/// feature is off.
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $value:expr) => {{
        static __VBT_SITE: $crate::trace::Site = $crate::trace::Site::new($name);
        $crate::trace::gauge_max(&__VBT_SITE, ($value) as u64)
    }};
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        // retry: a concurrent test may close the global gate mid-record
        let mut snap = super::snapshot();
        for _ in 0..1000 {
            super::set_enabled(true);
            crate::gauge_max!("test.gauge", 5);
            crate::gauge_max!("test.gauge", 17);
            crate::gauge_max!("test.gauge", 3); // must not lower the mark
            snap = super::snapshot();
            if snap.gauge("test.gauge") == Some(17) {
                break;
            }
        }
        assert_eq!(snap.gauge("test.gauge"), Some(17));
    }

    #[test]
    fn span_and_counter_record() {
        super::set_enabled(true);
        super::reserve_thread_ring(1024);
        let before = super::thread_events_written();
        {
            let _g = crate::span!("test.span", 7);
            crate::counter!("test.counter", 3);
        }
        let after = super::thread_events_written();
        assert_eq!(after - before, 3, "begin + counter + end");
        let snap = super::snapshot();
        assert!(snap.span_count("test.span") >= 1);
        assert!(snap
            .counters
            .iter()
            .any(|c| c.name == "test.counter" && c.value >= 3));
        let json = snap.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("test.span"));
    }

    #[test]
    fn disabled_gate_drops_records() {
        super::reserve_thread_ring(1024);
        super::set_enabled(false);
        let before = super::thread_events_written();
        {
            let _g = crate::span!("test.gated");
            crate::counter!("test.gated.counter", 1);
        }
        assert_eq!(super::thread_events_written(), before);
        super::set_enabled(true);
    }

    #[test]
    fn labeled_counters_intern_once() {
        super::set_enabled(true);
        super::labeled_add("test.group", "alpha", 2);
        super::labeled_add("test.group", "alpha", 3);
        let snap = super::snapshot();
        let hits: Vec<_> = snap
            .labeled
            .iter()
            .filter(|l| l.group == "test.group" && l.label == "alpha")
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].value >= 5);
    }

    #[test]
    fn histogram_quantiles_are_ordered() {
        super::set_enabled(true);
        for ns in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            crate::duration!("test.quantiles", ns);
        }
        let snap = super::snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.quantiles")
            .expect("histogram registered");
        assert!(h.count >= 5);
        assert!(h.quantile_ns(0.1) <= h.quantile_ns(0.5));
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.99));
        assert!(h.mean_ns() > 0.0);
    }
}

#[cfg(all(test, not(feature = "trace")))]
mod tests_off {
    #[test]
    fn everything_is_inert() {
        {
            let _g = crate::span!("off.span", 1);
            crate::counter!("off.counter", 1);
            crate::duration!("off.duration", 5);
        }
        assert!(!super::enabled());
        assert_eq!(super::thread_events_written(), 0);
        let snap = super::snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(
            snap.chrome_trace_json(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }
}
