//! # vbatch-serve
//!
//! A resilient long-running *service* over the variable-size batched
//! LU stack: clients submit single `A x = b` systems with a tenant
//! identity and a deadline; the service coalesces them into size-class
//! batches, runs them through reusable per-shard workspaces
//! ([`vbatch_exec::SizeClassHandle`]) on one fixed engine (sequential
//! CPU, guarded triage, blocked layout, full-precision factors), and
//! answers every request with
//! exactly one typed [`Outcome`] — never a panic, never a hang.
//!
//! The moving parts:
//!
//! * **admission** ([`Service::submit`]) — shape, order, and deadline
//!   checks, then a `try_send` into the tenant's shard queue (a
//!   bounded MPSC from `vbatch-rt`); a full queue sheds the request
//!   with a backlog-proportional retry-after hint, so memory is
//!   bounded by construction;
//! * **batching** ([`batcher`]) — per-shard size-class coalescing with
//!   work-conserving flush (class full / deadline watermark / queue
//!   drained: a batch holds what arrived while the worker was busy, so
//!   an idle shard answers a lone request with one solve), cooperative
//!   cancellation of requests that expired while queued, and solo
//!   flushes for quarantined tenants;
//! * **isolation** ([`tenants`]) — tenants whose systems triage as
//!   singular or non-finite are quarantined to solo batches until they
//!   produce a streak of clean solves; and because kernel selection is
//!   pinned per class ([`vbatch_exec::BatchPlan::uniform_at_capacity`]),
//!   a member's solution is bitwise identical however it was batched —
//!   a chaos tenant cannot perturb a healthy tenant's answer;
//! * **drain** ([`Service::shutdown`]) — admission stops, queued work
//!   flushes, workers join; tickets never dangle.
//!
//! The deterministic chaos harness lives in [`vbatch_rt::chaos`]; the
//! property suites in `tests/` drive this service through seeded
//! storms (delayed workers, poisoned tenants, bursts, skewed clocks)
//! and assert liveness, isolation, and bounded memory.

pub mod batcher;
pub mod config;
pub mod request;
pub mod service;
pub mod tenants;

pub use batcher::FlushReason;
pub use config::{ConfigError, ServeConfig};
pub use request::{Outcome, RejectReason, SolveRequest, TenantId, Ticket};
pub use service::{GlobalClock, Service, ServiceBuilder, ServiceClock};
pub use tenants::TenantRegistry;
