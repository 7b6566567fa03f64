//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around public calls into the
//! layer crates only (see `layers.rs`); nothing here reaches into the
//! library. A span is {name, start, end, parent, op}: the parent is the
//! span that was open on the recorder when this one started, and every
//! span of one timed op carries that op's index. Spans stay in memory
//! and are written out once, when the workload ends.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name of the root span of every op; time under it and under no child
/// is the benchmark's own (unattributed) time.
pub const OP: &str = "op";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    op: usize,
}

/// Records spans opened from one logical thread of control at a time
/// (the op driver and whatever the library calls back into on that
/// thread); the mutex exists because `Backend` and `Preconditioner`
/// are `Sync` interfaces, not because spans are expected to race.
pub struct Recorder {
    t0: Instant,
    inner: Mutex<Inner>,
}

pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            t0: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a span was being recorded when its thread panicked")
    }

    /// Open the root span of timed op number `op`.
    pub fn op(&self, op: usize) -> SpanGuard<'_> {
        self.lock().op = op;
        self.enter(OP)
    }

    /// Open a span under whichever span is open now; it closes when
    /// the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut g = self.lock();
        let idx = g.spans.len();
        let (parent, op) = (g.open.last().copied(), g.op);
        g.open.push(idx);
        // the clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping lands in the parent's self time
        let start_ns = self.now_ns();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        SpanGuard { rec: self, idx }
    }

    /// Record an already-measured span (the serve client knows a
    /// request's interval only after the fact). `parent` must be an
    /// index this recorder returned earlier.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        let mut g = self.lock();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        g.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        let mut g = self.rec.lock();
        g.spans[self.idx].end_ns = end_ns;
        let top = g.open.pop();
        debug_assert_eq!(top, Some(self.idx), "spans must close innermost first");
    }
}

/// Self time per span: its duration minus the durations of its direct
/// children (children never overlap: one thread opens them in turn).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-op totals by span name: (Σ duration, Σ self time), in seconds.
#[derive(Clone, Debug, Default)]
pub struct OpBreakdown {
    pub by_name: BTreeMap<&'static str, (f64, f64)>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl OpBreakdown {
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.0)
    }

    pub fn own(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.1)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Group spans by op and sum durations and self times per name.
pub fn per_op(spans: &[Span]) -> BTreeMap<usize, OpBreakdown> {
    let own = self_times_ns(spans);
    let mut ops: BTreeMap<usize, OpBreakdown> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let b = ops.entry(s.op).or_default();
        let e = b.by_name.entry(s.name).or_insert((0.0, 0.0));
        e.0 += s.duration_ns() as f64 * 1e-9;
        e.1 += self_ns as f64 * 1e-9;
        *b.counts.entry(s.name).or_insert(0) += 1;
    }
    ops
}

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            Value::obj([
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("op", Value::Num(s.op as f64)),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("spans", Value::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(rec: &Recorder, ns: u64) {
        let until = rec.now_ns() + ns;
        while rec.now_ns() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_parents_and_self_time_sum_to_the_root() {
        let rec = Recorder::new();
        for op in 0..3 {
            let _root = rec.op(op);
            busy(&rec, 20_000);
            {
                let _a = rec.enter("a");
                busy(&rec, 30_000);
                let _b = rec.enter("b");
                busy(&rec, 10_000);
            }
            let _c = rec.enter("c");
            busy(&rec, 5_000);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 12);
        let own = self_times_ns(&spans);
        for (i, s) in spans.iter().enumerate() {
            // children start and end inside their parent
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
                assert_eq!(spans[p].op, s.op);
            } else {
                assert_eq!(s.name, OP);
            }
            let kids: u64 = spans
                .iter()
                .filter(|k| k.parent == Some(i))
                .map(Span::duration_ns)
                .sum();
            assert!(kids <= s.duration_ns(), "children exceed parent {i}");
            assert_eq!(own[i], s.duration_ns() - kids);
        }
        // Σ self over an op == the op's root duration, exactly
        for (op, b) in per_op(&spans) {
            let root = spans
                .iter()
                .find(|s| s.op == op && s.parent.is_none())
                .unwrap();
            let sum_self: f64 = b.by_name.values().map(|t| t.1).sum();
            assert!((sum_self - root.duration_ns() as f64 * 1e-9).abs() < 1e-12);
            assert_eq!(b.count("a"), 1);
            assert!(b.total("a") >= b.total("b"));
        }
        // "b" was opened inside "a"
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(spans[b.parent.unwrap()].name, "a");
    }

    #[test]
    fn recorded_spans_nest_by_explicit_parent() {
        let rec = Recorder::new();
        let root = rec.record(OP, 100, 1_000, None, 7);
        let kid = rec.record("serve.inflight", 150, 1_000, Some(root), 7);
        rec.record("serve.submit", 150, 180, Some(kid), 7);
        let spans = rec.spans();
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![50, 820, 30]);
        let json = to_json("w", 1, &spans).render();
        assert!(json.contains("\"parent\":null") && json.contains("\"op\":7"));
    }
}
