//! The compiled-out implementation (default, `trace` feature off).
//! Every entry point is an empty inline function over zero-sized or
//! data-free types, so the `span!`/`counter!` macros expand to code the
//! optimizer deletes entirely — callers carry no cfg-gates and pay no
//! cost. Signatures mirror `on.rs` exactly.

use super::export::TraceSnapshot;

/// Interned callsite (inert: the feature is off).
#[doc(hidden)]
pub struct Site {
    _name: &'static str,
}

impl Site {
    /// Const constructor for the macro-generated statics.
    pub const fn new(name: &'static str) -> Self {
        Site { _name: name }
    }

    /// No-op counter bump.
    #[inline(always)]
    pub fn add(_site: &Site, _n: u64) {}
}

/// Inert span handle: zero-sized, no drop glue.
#[must_use = "a span guard records its close on drop; binding it to _ closes immediately"]
pub struct SpanGuard {
    _priv: (),
}

// The property the default build's speed rests on: `span!` returns a
// guard with nothing to store and nothing to drop, so a span in a
// kernel loop compiles away. With the live implementation compiled in
// instead (runtime gate closed), the perf ledger's `batch_uniform32`
// was slower in every alternated pair on a 2-vCPU x86-64 guest: median
// `time_to_solution_ms` 81.1 -> 96.0 ms (+18 %, 4 of 4 pairs) in one
// set, 97.1 -> 104.3 ms (+7 %, 5 of 5) in another.
const _: () = assert!(size_of::<SpanGuard>() == 0 && !std::mem::needs_drop::<SpanGuard>());

impl SpanGuard {
    /// No-op span open.
    #[doc(hidden)]
    #[inline(always)]
    pub fn enter(_site: &Site, _payload: u64) -> SpanGuard {
        SpanGuard { _priv: () }
    }
}

/// Always `false`: the feature is compiled out.
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// No-op: there is no runtime gate to open.
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// No-op: there are no rings to reserve.
#[inline(always)]
pub fn reserve_thread_ring(_cap_events: usize) {}

/// No-op: there are no rings to reserve, and no pool is started.
#[inline(always)]
pub fn reserve_pool_rings(_cap_events: usize) {}

/// No-op duration record.
#[doc(hidden)]
#[inline(always)]
pub fn record_duration(_site: &Site, _ns: u64) {}

/// No-op gauge raise.
#[doc(hidden)]
#[inline(always)]
pub fn gauge_max(_site: &Site, _value: u64) {}

/// No-op labeled-counter bump.
#[inline(always)]
pub fn labeled_add(_group: &'static str, _label: &'static str, _n: u64) {}

/// Always zero.
#[inline(always)]
pub fn thread_events_written() -> u64 {
    0
}

/// Always zero.
#[inline(always)]
pub fn dropped() -> u64 {
    0
}

/// Always empty.
#[inline(always)]
pub fn snapshot() -> TraceSnapshot {
    TraceSnapshot::default()
}

/// No-op.
#[inline(always)]
pub fn reset() {}
