//! The per-shard batcher: coalesces admitted requests into size-class
//! batches and flushes them through reusable [`SizeClassHandle`]
//! workspaces.
//!
//! Flush triggers, in priority order:
//!
//! * **class full** — a size class reached `class_capacity` members;
//! * **deadline watermark** — the oldest member's remaining deadline
//!   budget dropped below `flush_watermark`, judged at every admission
//!   on the clock reading the admission took, so a class of a rare
//!   order cannot expire behind a backlog of other orders;
//! * **queue drained** — the worker found its admission queue empty:
//!   nothing more can join a batch without waiting, so every partial
//!   class flushes. Batches therefore form exactly while the worker is
//!   busy; a lightly loaded shard answers each request with one solve,
//!   a backlogged one still fills classes to `class_capacity`;
//! * **quarantine** — a quarantined tenant's request flushes solo,
//!   immediately, so its recovery-chain latency is paid alone;
//! * **drain** — the service is shutting down and the last queued
//!   request was admitted; everything pending flushes now.
//!
//! Expired requests are cancelled cooperatively: checked at admission
//! *and* re-checked at flush time, so a request that aged out while
//! queued is rejected without burning a solve on it.
//!
//! This module is the service's warm path and carries the workspace
//! allocation tripwire: steady-state flushing reuses the scratch
//! buffers below, and the only per-flush allocations are the two
//! slice-reference tables (sized exactly, via `with_capacity`) and the
//! matrix staging the backend consumes by value.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;
use std::thread;

use vbatch_core::{BatchLayout, Scalar};
use vbatch_exec::{
    Backend, BlockHealth, CpuSequential, HealthPolicy, PrecisionPolicy, SizeClassHandle,
};
use vbatch_rt::chaos::ChaosPlan;

use crate::config::ServeConfig;
use crate::request::{Outcome, RejectReason, Slot, SolveRequest};
use crate::service::ServiceClock;
use crate::tenants::TenantRegistry;

/// Why a batch left the batcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The size class reached its configured capacity.
    ClassFull,
    /// The oldest member's deadline budget crossed the watermark.
    DeadlineWatermark,
    /// The admission queue ran dry; every partial class flushed.
    QueueDrained,
    /// A quarantined tenant's request, flushed solo.
    Quarantine,
    /// Service shutdown: everything pending flushes.
    Drain,
}

impl FlushReason {
    /// Stable label for the `serve.flush` counter group.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::ClassFull => "class_full",
            FlushReason::DeadlineWatermark => "deadline_watermark",
            FlushReason::QueueDrained => "queue_drained",
            FlushReason::Quarantine => "quarantine",
            FlushReason::Drain => "drain",
        }
    }
}

/// A request in flight through a shard: the caller's systems plus the
/// response slot its [`crate::Ticket`] waits on.
pub(crate) struct Envelope<T> {
    pub(crate) req: SolveRequest<T>,
    pub(crate) slot: Arc<Slot<T>>,
    pub(crate) submitted_ns: u64,
}

/// One shard's batching state: pending queues per size class, the
/// reusable solve handles, and the scratch buffers the flush path
/// recycles. Every handle runs the service's one engine:
/// [`CpuSequential`], guarded health triage, the blocked layout and
/// full-precision factor storage.
pub(crate) struct ShardBatcher<T: Scalar> {
    shard: usize,
    cfg: ServeConfig,
    clock: Arc<dyn ServiceClock>,
    registry: Arc<TenantRegistry>,
    chaos: Option<Arc<ChaosPlan>>,
    backend: Arc<dyn Backend<T>>,
    handles: BTreeMap<usize, SizeClassHandle<T>>,
    pending: BTreeMap<usize, VecDeque<Envelope<T>>>,
    flushes: u64,
    // flush scratch, reused across flushes
    batch: Vec<Envelope<T>>,
    mats: Vec<Vec<T>>,
    sols: Vec<Vec<T>>,
}

impl<T: Scalar + 'static> ShardBatcher<T> {
    pub(crate) fn new(
        shard: usize,
        cfg: ServeConfig,
        clock: Arc<dyn ServiceClock>,
        registry: Arc<TenantRegistry>,
        chaos: Option<Arc<ChaosPlan>>,
    ) -> Self {
        let cap = cfg.class_capacity;
        ShardBatcher {
            shard,
            cfg,
            clock,
            registry,
            chaos,
            backend: Arc::new(CpuSequential),
            handles: BTreeMap::new(),
            pending: BTreeMap::new(),
            flushes: 0,
            batch: Vec::with_capacity(cap),
            mats: Vec::with_capacity(cap),
            sols: Vec::with_capacity(cap),
        }
    }

    /// Accept one dequeued envelope: cancel it if expired, flush it
    /// solo if its tenant is quarantined, otherwise stage it in its
    /// size class (flushing the class if that fills it). Then flush
    /// every class whose oldest member's deadline budget has crossed
    /// the watermark, judged on the same clock reading.
    pub(crate) fn admit(&mut self, env: Envelope<T>) {
        let now = self.clock.now_ns();
        let n = env.req.n;
        if now >= env.req.deadline_ns {
            vbatch_rt::counter!("serve.expired", 1);
            env.slot
                .fill(Outcome::Rejected(RejectReason::DeadlineExpired));
        } else if self.registry.is_quarantined(env.req.tenant) {
            self.batch.push(env);
            self.flush_now(n, FlushReason::Quarantine);
        } else {
            let class = self.pending.entry(n).or_default();
            class.push_back(env);
            if class.len() >= self.cfg.class_capacity {
                self.flush_class(n, FlushReason::ClassFull);
            }
        }
        let watermark = self.cfg.flush_watermark.as_nanos() as u64;
        while let Some(n) =
            self.first_class(|oldest| oldest.req.deadline_ns.saturating_sub(now) <= watermark)
        {
            self.flush_class(n, FlushReason::DeadlineWatermark);
        }
    }

    /// Flush every non-empty class (queue drained or service drain).
    pub(crate) fn flush_all(&mut self, reason: FlushReason) {
        while let Some(n) = self.first_class(|_| true) {
            self.flush_class(n, reason);
        }
    }

    /// Order of the first class whose oldest member is `due`. Each
    /// flush takes that member, so the loops above end.
    fn first_class(&self, due: impl Fn(&Envelope<T>) -> bool) -> Option<usize> {
        self.pending
            .iter()
            .find(|(_, class)| class.front().is_some_and(&due))
            .map(|(&n, _)| n)
    }

    fn flush_class(&mut self, n: usize, reason: FlushReason) {
        if let Some(class) = self.pending.get_mut(&n) {
            debug_assert!(self.batch.is_empty());
            while self.batch.len() < self.cfg.class_capacity {
                match class.pop_front() {
                    Some(env) => self.batch.push(env),
                    None => break,
                }
            }
        }
        if !self.batch.is_empty() {
            self.flush_now(n, reason);
        }
    }

    /// Solve whatever sits in `self.batch` (already all of order `n`).
    fn flush_now(&mut self, n: usize, reason: FlushReason) {
        vbatch_rt::trace::labeled_add("serve.flush", reason.label(), 1);
        if let Some(chaos) = &self.chaos {
            if let Some(delay) = chaos.worker_delay(self.shard, self.flushes) {
                thread::sleep(delay);
            }
        }
        self.flushes += 1;

        // Cooperative cancellation: requests that aged out while queued
        // are rejected here, before any factorization runs.
        let now = self.clock.now_ns();
        let mut batch = mem::take(&mut self.batch);
        batch.retain_mut(|env| {
            if now >= env.req.deadline_ns {
                vbatch_rt::counter!("serve.expired", 1);
                env.slot
                    .fill(Outcome::Rejected(RejectReason::DeadlineExpired));
                false
            } else {
                true
            }
        });
        if batch.is_empty() {
            self.batch = batch;
            return;
        }

        let handle = match self.handles.get_mut(&n) {
            Some(h) => h,
            None => {
                let h = SizeClassHandle::new(
                    n,
                    self.cfg.class_capacity,
                    Arc::clone(&self.backend),
                    HealthPolicy::guarded::<T>(),
                    BatchLayout::Blocked,
                    PrecisionPolicy::FullDp,
                );
                self.handles.entry(n).or_insert(h)
            }
        };

        debug_assert!(self.mats.is_empty() && self.sols.is_empty());
        for env in &mut batch {
            self.mats.push(mem::take(&mut env.req.matrix));
            self.sols.push(mem::take(&mut env.req.rhs));
        }
        let statuses = {
            let block_refs: Vec<&[T]> = {
                let mut refs = Vec::with_capacity(self.mats.len());
                for m in &self.mats {
                    refs.push(m.as_slice());
                }
                refs
            };
            let mut sol_refs: Vec<&mut [T]> = {
                let mut refs = Vec::with_capacity(self.sols.len());
                for s in &mut self.sols {
                    refs.push(s.as_mut_slice());
                }
                refs
            };
            let _span = vbatch_rt::span!("serve.flush_solve", block_refs.len() as u64);
            handle.solve_batch(&block_refs, &mut sol_refs)
        };
        self.mats.clear();

        let done = self.clock.now_ns();
        for (env, (solution, status)) in batch.drain(..).zip(self.sols.drain(..).zip(statuses)) {
            self.registry.record(env.req.tenant, status.health);
            // queue wait ends at the flush's cancellation reading; the
            // rest of the latency is this flush's solve
            vbatch_rt::duration!("serve.queue_wait", now.saturating_sub(env.submitted_ns));
            vbatch_rt::duration!(
                "serve.request_latency",
                done.saturating_sub(env.submitted_ns)
            );
            let outcome = match status.health {
                BlockHealth::Healthy => {
                    vbatch_rt::counter!("serve.solved", 1);
                    Outcome::Solved { solution, status }
                }
                reason => {
                    vbatch_rt::counter!("serve.degraded", 1);
                    Outcome::Degraded {
                        solution,
                        reason,
                        status,
                    }
                }
            };
            env.slot.fill(outcome);
        }
        self.batch = batch;
    }
}
