//! The live implementation, compiled only with the `trace` feature.
//!
//! Hot-path discipline (this module is under the workspace allocation
//! tripwire): a span or counter record is
//!
//! * one relaxed load of the enabled flag,
//! * one relaxed load of the interned site id (slow-path interning runs
//!   once per site, into fixed static tables — no allocation),
//! * one [`crate::clock::monotonic_ns`] read,
//! * three relaxed atomic stores into the thread's ring plus a relaxed
//!   index bump,
//! * and, on span close, three relaxed `fetch_add`s into the fixed
//!   histogram arrays.
//!
//! The only allocation in the entire layer is the creation of a
//! thread's event ring, which happens at most once per thread — either
//! explicitly at setup time via [`reserve_thread_ring`] (what
//! `PreparedApply::new` and the Krylov workspace constructors do) or
//! lazily on a thread's first event. Once [`MAX_RINGS`] rings exist,
//! further threads record metrics only; their ring events are counted
//! in [`dropped`]. Ring slots are `AtomicU64` words so the drain in
//! [`snapshot`] can read concurrently with writers without UB (a slot
//! mid-write can tear across its three words; snapshots are taken
//! after the measured region, where this does not occur).
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use super::export::{
    CounterSample, EventKind, HistogramSample, LabeledSample, TraceEvent, TraceSnapshot,
    HIST_BUCKETS,
};
use crate::clock::monotonic_ns;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum distinct `span!`/`counter!` sites; the last slot absorbs any
/// overflow so the fast path never branches on capacity.
const MAX_SITES: usize = 256;

/// Maximum distinct labeled counters (`group` × `label` pairs).
const MAX_LABELED: usize = 256;

/// Maximum per-thread event rings kept for draining; threads beyond
/// this record metrics but drop their ring events (counted).
const MAX_RINGS: usize = 64;

/// Ring capacity (events) when a thread's first event arrives before
/// any [`reserve_thread_ring`] call.
const DEFAULT_RING_EVENTS: usize = 1 << 13;

const WORDS_PER_EVENT: usize = 3;

// ---------------------------------------------------------------------
// runtime gate

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether tracing is live: the `trace` feature is compiled in *and*
/// the runtime gate is open (it is by default).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open or close the runtime gate. With the gate closed the macros
/// still cost the one relaxed load that checks it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// site interning: fixed static tables, no allocation

struct StrSlot {
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
}

macro_rules! str_slot_array {
    ($n:expr) => {
        [const {
            StrSlot {
                ptr: AtomicPtr::new(std::ptr::null_mut()),
                len: AtomicUsize::new(0),
            }
        }; $n]
    };
}

impl StrSlot {
    fn store(&self, s: &'static str) {
        self.len.store(s.len(), Ordering::Relaxed);
        self.ptr.store(s.as_ptr() as *mut u8, Ordering::Release);
    }

    fn load(&self) -> Option<&'static str> {
        let ptr = self.ptr.load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        let len = self.len.load(Ordering::Relaxed);
        // SAFETY: only ever stored from a &'static str with this length.
        Some(unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) })
    }
}

static SITE_NAMES: [StrSlot; MAX_SITES] = str_slot_array!(MAX_SITES);
static SITE_IS_COUNTER: [AtomicBool; MAX_SITES] = [const { AtomicBool::new(false) }; MAX_SITES];
static SITE_LEN: AtomicUsize = AtomicUsize::new(0);
static REG: Mutex<()> = Mutex::new(());

/// One interned callsite, created by the `span!`/`counter!` macros as a
/// function-local `static`. The id is interned on first use (a short
/// uncontended lock, no allocation) and cached in the site itself.
#[doc(hidden)]
pub struct Site {
    name: &'static str,
    /// 0 = not yet interned; otherwise id + 1.
    id: AtomicU32,
}

impl Site {
    /// Const constructor for the macro-generated statics.
    pub const fn new(name: &'static str) -> Self {
        Site {
            name,
            id: AtomicU32::new(0),
        }
    }

    #[inline]
    fn id(&self) -> usize {
        let cached = self.id.load(Ordering::Relaxed);
        if cached != 0 {
            return (cached - 1) as usize;
        }
        self.intern()
    }

    #[cold]
    fn intern(&self) -> usize {
        let _guard = REG.lock().expect("trace site registry poisoned");
        let cached = self.id.load(Ordering::Relaxed);
        if cached != 0 {
            return (cached - 1) as usize;
        }
        let idx = SITE_LEN.load(Ordering::Relaxed);
        let idx = if idx >= MAX_SITES - 1 {
            // overflow: everything else shares the sentinel slot
            SITE_NAMES[MAX_SITES - 1].store("trace.site_overflow");
            MAX_SITES - 1
        } else {
            SITE_NAMES[idx].store(self.name);
            SITE_LEN.store(idx + 1, Ordering::Release);
            idx
        };
        self.id.store(idx as u32 + 1, Ordering::Release);
        idx
    }

    /// Bump this site's counter by `n` and record a counter event on
    /// the current thread's ring. Used via the `counter!` macro.
    #[inline]
    pub fn add(site: &Site, n: u64) {
        if !enabled() {
            return;
        }
        let id = site.id();
        SITE_IS_COUNTER[id].store(true, Ordering::Relaxed);
        COUNTERS[id].fetch_add(n, Ordering::Relaxed);
        push_event(EventKind::Counter, id, monotonic_ns(), n);
    }
}

// ---------------------------------------------------------------------
// metrics registry: fixed atomic arrays

static COUNTERS: [AtomicU64; MAX_SITES] = [const { AtomicU64::new(0) }; MAX_SITES];
static GAUGE_MAX: [AtomicU64; MAX_SITES] = [const { AtomicU64::new(0) }; MAX_SITES];
static SITE_IS_GAUGE: [AtomicBool; MAX_SITES] = [const { AtomicBool::new(false) }; MAX_SITES];
static HIST_COUNT: [AtomicU64; MAX_SITES] = [const { AtomicU64::new(0) }; MAX_SITES];
static HIST_SUM: [AtomicU64; MAX_SITES] = [const { AtomicU64::new(0) }; MAX_SITES];
static HIST: [[AtomicU64; HIST_BUCKETS]; MAX_SITES] =
    [const { [const { AtomicU64::new(0) }; HIST_BUCKETS] }; MAX_SITES];

#[inline]
fn bucket_of(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros()) as usize
}

#[inline]
fn record_duration_id(id: usize, ns: u64) {
    HIST_COUNT[id].fetch_add(1, Ordering::Relaxed);
    HIST_SUM[id].fetch_add(ns, Ordering::Relaxed);
    HIST[id][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
}

/// Raise the named high-water gauge to at least `value` (a single
/// relaxed `fetch_max`; no ring event). Used via the `gauge_max!`
/// macro for depth-style metrics where the maximum ever observed is
/// the interesting number — e.g. admission-queue depth.
#[doc(hidden)]
pub fn gauge_max(site: &Site, value: u64) {
    if !enabled() {
        return;
    }
    let id = site.id();
    SITE_IS_GAUGE[id].store(true, Ordering::Relaxed);
    GAUGE_MAX[id].fetch_max(value, Ordering::Relaxed);
}

/// Record a duration into the named span histogram without opening a
/// span — the forwarding hook for externally timed phases
/// (`ExecStats::add_phase`).
#[doc(hidden)]
pub fn record_duration(site: &Site, ns: u64) {
    if !enabled() {
        return;
    }
    record_duration_id(site.id(), ns);
}

// labeled counters: (group, label) pairs in fixed slots, lock-free
// lookup over an append-only table

static LAB_GROUP: [StrSlot; MAX_LABELED] = str_slot_array!(MAX_LABELED);
static LAB_LABEL: [StrSlot; MAX_LABELED] = str_slot_array!(MAX_LABELED);
static LAB_VALUE: [AtomicU64; MAX_LABELED] = [const { AtomicU64::new(0) }; MAX_LABELED];
static LAB_LEN: AtomicUsize = AtomicUsize::new(0);

fn labeled_slot(group: &'static str, label: &'static str) -> usize {
    let n = LAB_LEN.load(Ordering::Acquire);
    for i in 0..n {
        if LAB_GROUP[i].load() == Some(group) && LAB_LABEL[i].load() == Some(label) {
            return i;
        }
    }
    labeled_intern(group, label)
}

#[cold]
fn labeled_intern(group: &'static str, label: &'static str) -> usize {
    let _guard = REG.lock().expect("trace labeled registry poisoned");
    let n = LAB_LEN.load(Ordering::Relaxed);
    for i in 0..n {
        if LAB_GROUP[i].load() == Some(group) && LAB_LABEL[i].load() == Some(label) {
            return i;
        }
    }
    if n >= MAX_LABELED - 1 {
        LAB_GROUP[MAX_LABELED - 1].store("trace");
        LAB_LABEL[MAX_LABELED - 1].store("labeled_overflow");
        return MAX_LABELED - 1;
    }
    LAB_GROUP[n].store(group);
    LAB_LABEL[n].store(label);
    LAB_LEN.store(n + 1, Ordering::Release);
    n
}

/// Bump the labeled counter `group`/`label` by `n`. This is the
/// registry entry `ExecStats` forwards its kernel/layout/health/
/// recovery tallies through; lookup is a lock-free scan of the fixed
/// table (first use of a pair interns it, without allocating).
pub fn labeled_add(group: &'static str, label: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    LAB_VALUE[labeled_slot(group, label)].fetch_add(n, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// per-thread event rings

struct EventRing {
    tid: u64,
    cap_events: usize,
    /// Total events ever pushed (wraps into the ring by modulo).
    head: AtomicU64,
    words: Box<[AtomicU64]>,
}

impl EventRing {
    // ring construction is the setup-time allocation the zero-alloc
    // guarantee is built around: it happens once per thread, at
    // `reserve_thread_ring` / first-event time, never per event
    #[allow(clippy::disallowed_methods)]
    fn with_capacity(tid: u64, cap_events: usize) -> Arc<EventRing> {
        let cap_events = cap_events.max(16);
        let mut words = Vec::new();
        words.reserve_exact(cap_events * WORDS_PER_EVENT);
        for _ in 0..cap_events * WORDS_PER_EVENT {
            words.push(AtomicU64::new(0));
        }
        Arc::new(EventRing {
            tid,
            cap_events,
            head: AtomicU64::new(0),
            words: words.into_boxed_slice(),
        })
    }

    #[inline]
    fn push(&self, kind: EventKind, site: usize, t_ns: u64, payload: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = (seq as usize % self.cap_events) * WORDS_PER_EVENT;
        let kind_bits = match kind {
            EventKind::Begin => 0u64,
            EventKind::End => 1,
            EventKind::Counter => 2,
        };
        self.words[slot].store(site as u64 | (kind_bits << 32), Ordering::Relaxed);
        self.words[slot + 1].store(t_ns, Ordering::Relaxed);
        self.words[slot + 2].store(payload, Ordering::Relaxed);
        self.head.store(seq + 1, Ordering::Release);
    }
}

// const initializer: `Vec::new` here allocates nothing, ever
#[allow(clippy::disallowed_methods)]
static RINGS: Mutex<Vec<Arc<EventRing>>> = Mutex::new(Vec::new());
static RING_COUNT: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's ring: unset, present, or permanently unavailable
    /// (ring budget exhausted — metrics only).
    static THREAD_RING: Cell<ThreadRingState> = const { Cell::new(ThreadRingState::Unset) };
}

#[derive(Clone, Copy)]
enum ThreadRingState {
    Unset,
    Ready(&'static EventRing),
    Unavailable,
}

// setup-time: ring creation allocates, exactly once per thread
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
fn create_thread_ring(cap_events: usize) -> ThreadRingState {
    let mut rings = RINGS.lock().expect("trace ring registry poisoned");
    if rings.len() >= MAX_RINGS {
        return ThreadRingState::Unavailable;
    }
    let ring = EventRing::with_capacity(rings.len() as u64, cap_events);
    // Hand the thread-local a plain reference to the ring.
    // SAFETY: `ring` is pushed into the static `RINGS` registry on the
    // next line, under the lock held here; the registry only ever grows
    // and is never dropped, so the `Arc`'s pointee outlives every thread.
    let raw: &'static EventRing = unsafe { &*(Arc::as_ptr(&ring)) };
    rings.push(ring);
    RING_COUNT.store(rings.len(), Ordering::Relaxed);
    ThreadRingState::Ready(raw)
}

/// Ensure the current thread has an event ring of at least
/// `cap_events` capacity, creating it now so later `span!`/`counter!`
/// records on this thread are allocation-free. Called from setup paths
/// (`PreparedApply::new`, Krylov workspace construction); a no-op if
/// the thread already has a ring or the ring budget is exhausted.
pub fn reserve_thread_ring(cap_events: usize) {
    THREAD_RING.with(|cell| {
        if let ThreadRingState::Unset = cell.get() {
            cell.set(create_thread_ring(cap_events.max(DEFAULT_RING_EVENTS)));
        }
    });
}

/// [`reserve_thread_ring`] on the calling thread and on every worker of
/// the `vbatch_rt::par` pool, which a parallel apply records its spans
/// from. The workers are persistent, so each builds its ring once, ever;
/// a pool that is taken right now is left alone (its workers then build
/// theirs on their first event).
pub fn reserve_pool_rings(cap_events: usize) {
    reserve_thread_ring(cap_events);
    if enabled() {
        crate::par::run_on_each_thread(&|_, _| reserve_thread_ring(cap_events));
    }
}

#[inline]
fn push_event(kind: EventKind, site: usize, t_ns: u64, payload: u64) {
    THREAD_RING.with(|cell| match cell.get() {
        ThreadRingState::Ready(ring) => ring.push(kind, site, t_ns, payload),
        ThreadRingState::Unset => {
            let state = create_thread_ring(DEFAULT_RING_EVENTS);
            cell.set(state);
            match state {
                ThreadRingState::Ready(ring) => ring.push(kind, site, t_ns, payload),
                _ => {
                    DROPPED.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ThreadRingState::Unavailable => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Total ring events recorded by the *current thread* (its ring's
/// monotone head counter). The deterministic hook for the regression
/// tests: single-threaded sections can assert exact event counts
/// without interference from other test threads.
pub fn thread_events_written() -> u64 {
    THREAD_RING.with(|cell| match cell.get() {
        ThreadRingState::Ready(ring) => ring.head.load(Ordering::Relaxed),
        _ => 0,
    })
}

/// Events dropped process-wide (ring budget exhausted).
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// spans

/// RAII span handle produced by the `span!` macro: records a begin
/// event at construction and an end event plus a latency-histogram
/// entry at drop.
#[must_use = "a span guard records its close on drop; binding it to _ closes immediately"]
pub struct SpanGuard {
    /// Interned site id + 1; 0 when tracing was disabled at entry.
    site_id: u32,
    t0: u64,
}

impl SpanGuard {
    /// Open a span at `site` with an opaque payload (batch size, block
    /// count, iteration index — whatever the callsite finds useful).
    #[doc(hidden)]
    #[inline]
    pub fn enter(site: &Site, payload: u64) -> SpanGuard {
        if !enabled() {
            return SpanGuard { site_id: 0, t0: 0 };
        }
        let id = site.id();
        let t0 = monotonic_ns();
        push_event(EventKind::Begin, id, t0, payload);
        SpanGuard {
            site_id: id as u32 + 1,
            t0,
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.site_id == 0 {
            return;
        }
        let id = (self.site_id - 1) as usize;
        let t1 = monotonic_ns();
        push_event(EventKind::End, id, t1, 0);
        record_duration_id(id, t1.saturating_sub(self.t0));
    }
}

// ---------------------------------------------------------------------
// drain / reset

// export-time: building the owned snapshot allocates freely
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
/// Drain a copy of everything recorded so far: ring events (sorted by
/// timestamp), counters, labeled counters, and span histograms.
/// Non-destructive; concurrent recording keeps running.
pub fn snapshot() -> TraceSnapshot {
    let mut snap = TraceSnapshot {
        dropped_events: DROPPED.load(Ordering::Relaxed),
        ..TraceSnapshot::default()
    };

    let site_len = SITE_LEN.load(Ordering::Acquire);
    let names: Vec<&'static str> = (0..MAX_SITES)
        .map(|i| SITE_NAMES[i].load().unwrap_or("trace.unknown"))
        .collect();

    for id in 0..site_len.min(MAX_SITES) {
        let is_counter = SITE_IS_COUNTER[id].load(Ordering::Relaxed);
        let value = COUNTERS[id].load(Ordering::Relaxed);
        if is_counter || value > 0 {
            snap.counters.push(CounterSample {
                name: names[id],
                value,
            });
        }
        if SITE_IS_GAUGE[id].load(Ordering::Relaxed) {
            snap.gauges.push(super::export::GaugeSample {
                name: names[id],
                value: GAUGE_MAX[id].load(Ordering::Relaxed),
            });
        }
        let count = HIST_COUNT[id].load(Ordering::Relaxed);
        if count > 0 {
            let mut buckets = [0u64; HIST_BUCKETS];
            for (b, bucket) in buckets.iter_mut().enumerate() {
                *bucket = HIST[id][b].load(Ordering::Relaxed);
            }
            snap.histograms.push(HistogramSample {
                name: names[id],
                count,
                sum_ns: HIST_SUM[id].load(Ordering::Relaxed),
                buckets,
            });
        }
    }

    let lab_len = LAB_LEN.load(Ordering::Acquire);
    for i in 0..lab_len.min(MAX_LABELED) {
        let (Some(group), Some(label)) = (LAB_GROUP[i].load(), LAB_LABEL[i].load()) else {
            continue;
        };
        snap.labeled.push(LabeledSample {
            group,
            label,
            value: LAB_VALUE[i].load(Ordering::Relaxed),
        });
    }

    let rings = RINGS.lock().expect("trace ring registry poisoned");
    for ring in rings.iter() {
        let head = ring.head.load(Ordering::Acquire);
        let kept = (head as usize).min(ring.cap_events);
        snap.dropped_events += head - kept as u64;
        let first = head - kept as u64;
        for seq in first..head {
            let slot = (seq as usize % ring.cap_events) * WORDS_PER_EVENT;
            let word0 = ring.words[slot].load(Ordering::Relaxed);
            let site = (word0 & 0xffff_ffff) as usize;
            let kind = match word0 >> 32 {
                0 => EventKind::Begin,
                1 => EventKind::End,
                _ => EventKind::Counter,
            };
            snap.events.push(TraceEvent {
                tid: ring.tid,
                kind,
                name: names.get(site).copied().unwrap_or("trace.unknown"),
                t_ns: ring.words[slot + 1].load(Ordering::Relaxed),
                payload: ring.words[slot + 2].load(Ordering::Relaxed),
            });
        }
    }
    drop(rings);

    snap.events.sort_by_key(|e| e.t_ns);
    snap
}

/// Zero every counter, histogram, ring head, and the drop counter.
/// Interned sites and rings stay registered (no allocation or free);
/// only their contents reset. Meant for process-local measurement
/// harnesses (the bench bins) — racy if other threads are recording.
pub fn reset() {
    for i in 0..MAX_SITES {
        COUNTERS[i].store(0, Ordering::Relaxed);
        GAUGE_MAX[i].store(0, Ordering::Relaxed);
        HIST_COUNT[i].store(0, Ordering::Relaxed);
        HIST_SUM[i].store(0, Ordering::Relaxed);
        for b in 0..HIST_BUCKETS {
            HIST[i][b].store(0, Ordering::Relaxed);
        }
    }
    for i in 0..MAX_LABELED {
        LAB_VALUE[i].store(0, Ordering::Relaxed);
    }
    let rings = RINGS.lock().expect("trace ring registry poisoned");
    for ring in rings.iter() {
        ring.head.store(0, Ordering::Relaxed);
    }
    DROPPED.store(0, Ordering::Relaxed);
}
