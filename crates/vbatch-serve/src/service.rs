//! The service front door: sharded admission queues, worker threads
//! running one `ShardBatcher` each, and graceful
//! drain.
//!
//! Shutdown protocol: [`Service::shutdown`] (or drop) first flips the
//! cancel token so new submissions are rejected with
//! [`RejectReason::ShuttingDown`], then drops the senders. Each worker
//! keeps draining its queue until the channel reports disconnected,
//! flushes everything still pending with [`FlushReason::Drain`], and
//! exits — so every admitted request still receives its outcome.
//!
//! The worker flushes whenever its queue runs dry
//! ([`FlushReason::QueueDrained`]), so nothing is pending while it
//! parks: `idle_tick` is only the period of that park.

use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::JoinHandle;

use vbatch_core::Scalar;
use vbatch_rt::chaos::ChaosPlan;
use vbatch_rt::clock::{monotonic_ns, MonoTimer, RawClock};
use vbatch_rt::sync::{bounded, CancelToken, Receiver, RecvError, Sender, TrySendError};

use crate::batcher::{Envelope, FlushReason, ShardBatcher};
use crate::config::{ConfigError, ServeConfig};
use crate::request::{Outcome, RejectReason, Slot, SolveRequest, Ticket};
use crate::tenants::TenantRegistry;

/// The service's time source. Deadlines are absolute nanosecond
/// readings of this clock; tests inject skewed or fake clocks, the
/// default reads the process-wide monotonic-clamped timer.
pub trait ServiceClock: Send + Sync + 'static {
    /// Current reading, nanoseconds, monotonic non-decreasing.
    fn now_ns(&self) -> u64;
}

/// The default clock: [`vbatch_rt::clock::monotonic_ns`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalClock;

impl ServiceClock for GlobalClock {
    fn now_ns(&self) -> u64 {
        monotonic_ns()
    }
}

/// Any monotonic-clamped timer over a raw clock serves as a service
/// clock — the hook the chaos suite uses to drive the service with a
/// [`vbatch_rt::chaos::SkewClock`].
impl<C: RawClock + Send + Sync + 'static> ServiceClock for MonoTimer<C> {
    fn now_ns(&self) -> u64 {
        MonoTimer::now_ns(self)
    }
}

/// Builder for [`Service`]: configuration is validated at
/// [`ServiceBuilder::start`]; the clock and the chaos schedule are the
/// two test substitution hooks. The engine is fixed: every size class
/// runs on [`vbatch_exec::CpuSequential`] with guarded health triage,
/// the blocked layout and full-precision factor storage.
pub struct ServiceBuilder<T: Scalar> {
    cfg: ServeConfig,
    clock: Arc<dyn ServiceClock>,
    chaos: Option<Arc<ChaosPlan>>,
    _scalar: PhantomData<T>,
}

impl<T: Scalar + 'static> ServiceBuilder<T> {
    /// A builder over `cfg` with the global monotonic clock and no
    /// chaos.
    pub fn new(cfg: ServeConfig) -> Self {
        ServiceBuilder {
            cfg,
            clock: Arc::new(GlobalClock),
            chaos: None,
            _scalar: PhantomData,
        }
    }

    /// Read time (and judge deadlines) through `clock`.
    pub fn clock(mut self, clock: Arc<dyn ServiceClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Inject a deterministic chaos schedule (worker delays). Test
    /// harness hook; `None` in production.
    pub fn chaos(mut self, chaos: Arc<ChaosPlan>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Validate the configuration and start the shard workers.
    pub fn start(self) -> Result<Service<T>, ConfigError> {
        self.cfg.validate()?;
        let registry = Arc::new(TenantRegistry::new());
        let cancel = CancelToken::new();
        let mut senders = Vec::with_capacity(self.cfg.shards);
        let mut workers = Vec::with_capacity(self.cfg.shards);
        for shard in 0..self.cfg.shards {
            let (tx, rx) = bounded::<Envelope<T>>(self.cfg.queue_capacity);
            let batcher = ShardBatcher::new(
                shard,
                self.cfg.clone(),
                Arc::clone(&self.clock),
                Arc::clone(&registry),
                self.chaos.clone(),
            );
            let idle = self.cfg.idle_tick;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("vbatch-serve-{shard}"))
                    .spawn(move || run_worker(rx, batcher, idle))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        Ok(Service {
            cfg: self.cfg,
            clock: self.clock,
            registry,
            cancel,
            senders,
            workers,
        })
    }
}

fn run_worker<T: Scalar + 'static>(
    rx: Receiver<Envelope<T>>,
    mut batcher: ShardBatcher<T>,
    idle: std::time::Duration,
) {
    loop {
        // nothing is pending here: every drain below ends in a flush
        let env = match rx.recv_timeout(idle) {
            Ok(env) => env,
            Err(RecvError::Empty) => continue,
            Err(RecvError::Disconnected) => return,
        };
        vbatch_rt::gauge_max!("serve.queue_depth", (rx.len() + 1) as u64);
        batcher.admit(env);
        // coalesce whatever else is queued right now, so a burst becomes
        // one batch instead of many singletons; once the queue runs dry
        // nothing more can join without waiting, so flush what is staged
        loop {
            match rx.try_recv() {
                Ok(env) => batcher.admit(env),
                Err(RecvError::Empty) => {
                    batcher.flush_all(FlushReason::QueueDrained);
                    break;
                }
                Err(RecvError::Disconnected) => {
                    batcher.flush_all(FlushReason::Drain);
                    return;
                }
            }
        }
    }
}

/// A running batched-solve service. Submit with [`Service::submit`],
/// stop with [`Service::shutdown`] (drop also drains). Cloneable
/// submission is deliberately absent: one owner controls the
/// lifecycle; share access behind an `Arc` if needed (submission takes
/// `&self`).
pub struct Service<T: Scalar> {
    cfg: ServeConfig,
    clock: Arc<dyn ServiceClock>,
    registry: Arc<TenantRegistry>,
    cancel: CancelToken,
    senders: Vec<Sender<Envelope<T>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Scalar + 'static> Service<T> {
    /// Start a service over `cfg` with the production clock and no
    /// chaos ([`ServiceBuilder`] for the test hooks).
    pub fn start(cfg: ServeConfig) -> Result<Self, ConfigError> {
        ServiceBuilder::new(cfg).start()
    }

    /// Builder with an explicit clock or chaos schedule.
    pub fn builder(cfg: ServeConfig) -> ServiceBuilder<T> {
        ServiceBuilder::new(cfg)
    }

    /// Current reading of the service clock, for computing absolute
    /// deadlines.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Absolute deadline `budget` from now, on the service clock.
    pub fn deadline_in(&self, budget: std::time::Duration) -> u64 {
        self.clock.now_ns().saturating_add(budget.as_nanos() as u64)
    }

    /// Which shard serves `tenant` (stable hash; a tenant's requests
    /// stay ordered relative to each other).
    pub fn shard_of(&self, tenant: crate::TenantId) -> usize {
        // splitmix64 finalizer: avalanche the id so dense tenant ids
        // still spread across shards
        let mut x = tenant.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((x ^ (x >> 31)) % self.senders.len() as u64) as usize
    }

    /// Current depth of `shard`'s admission queue (bounded by
    /// `queue_capacity` — the memory-ceiling invariant the chaos suite
    /// asserts).
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.senders[shard].len()
    }

    /// Tenants currently quarantined to solo batches.
    pub fn quarantined_tenants(&self) -> usize {
        self.registry.quarantined_count()
    }

    /// Submit one request. Always returns a ticket that resolves to
    /// exactly one [`Outcome`]; admission failures (shutdown, shape
    /// errors, expired deadline, full queue) resolve it immediately.
    pub fn submit(&self, req: SolveRequest<T>) -> Ticket<T> {
        vbatch_rt::counter!("serve.submitted", 1);
        if self.cancel.is_cancelled() {
            return Ticket::resolved(Outcome::Rejected(RejectReason::ShuttingDown));
        }
        if req.n == 0 || req.n > self.cfg.max_order {
            return Ticket::resolved(Outcome::Rejected(RejectReason::Oversized {
                n: req.n,
                max_order: self.cfg.max_order,
            }));
        }
        if req.matrix.len() != req.n * req.n || req.rhs.len() != req.n {
            return Ticket::resolved(Outcome::Rejected(RejectReason::Malformed));
        }
        let now = self.clock.now_ns();
        if now >= req.deadline_ns {
            vbatch_rt::counter!("serve.expired", 1);
            return Ticket::resolved(Outcome::Rejected(RejectReason::DeadlineExpired));
        }
        let shard = self.shard_of(req.tenant);
        let slot = Slot::new();
        let env = Envelope {
            req,
            slot: Arc::clone(&slot),
            submitted_ns: now,
        };
        match self.senders[shard].try_send(env) {
            Ok(()) => Ticket::new(slot),
            Err(TrySendError::Full(_)) => {
                vbatch_rt::counter!("serve.shed", 1);
                let retry_after = self.cfg.retry_after(self.senders[shard].len());
                Ticket::resolved(Outcome::Rejected(RejectReason::QueueFull { retry_after }))
            }
            Err(TrySendError::Disconnected(_)) => {
                Ticket::resolved(Outcome::Rejected(RejectReason::ShuttingDown))
            }
        }
    }

    /// Stop admitting new requests without draining yet: every
    /// subsequent [`Service::submit`] resolves immediately to
    /// [`RejectReason::ShuttingDown`], while already-queued work keeps
    /// flowing to its outcome. Idempotent; callable through a shared
    /// reference (e.g. from a signal handler thread).
    pub fn stop_admission(&self) {
        self.cancel.cancel();
    }

    /// Stop admission, drain every queued request to its outcome, and
    /// join the workers.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.cancel.cancel();
        // dropping the senders lets each worker observe Disconnected
        // once its queue is empty
        self.senders.clear();
        for w in self.workers.drain(..) {
            // a worker that panicked already answered no one; there is
            // nothing useful to do beyond propagating in tests via the
            // join error, so swallow here and let tickets time out only
            // in that (never-observed) case
            let _ = w.join();
        }
    }
}

impl<T: Scalar> Drop for Service<T> {
    fn drop(&mut self) {
        self.drain();
    }
}
