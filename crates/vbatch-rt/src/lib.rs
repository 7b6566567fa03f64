//! # vbatch-rt
//!
//! The runtime substrate every other crate in the workspace builds on,
//! written against `std` only so the whole system builds in hermetic
//! (network-less) environments:
//!
//! * [`par`] — a persistent thread pool with one primitive
//!   ([`par::run`], under a microsecond per dispatch, nothing allocated
//!   per call: the CPU analogue of launching one warp per block on
//!   every Krylov iteration) and an ordered map over owned collections
//!   on top of it ([`par::par_map_vec`]);
//! * [`rng`] — a deterministic splitmix64 PRNG with a `rand`-style
//!   `gen_range` surface, used by the problem generators, IDR's shadow
//!   space and the test harnesses;
//! * [`check`] — a seeded random-case harness for property tests
//!   (deterministic, shrink-free, zero-dependency);
//! * [`fault`] — seeded fault-injection plans assigning corruption
//!   classes to batch members, so every recovery path in the stack is
//!   deterministically exercisable;
//! * [`chaos`] — seeded *runtime* chaos plans (delayed workers,
//!   poisoned tenants, burst arrivals, skewed clocks) driving the
//!   service-level property suites in `vbatch-serve`;
//! * [`sync`] — bounded MPSC channels with non-destructive fullness
//!   probes plus a cooperative [`sync::CancelToken`], the admission /
//!   drain substrate of the batched-solve service;
//! * [`clock`] — the process-wide monotonic-clamped nanosecond clock
//!   behind the trace timestamps and the service deadlines;
//! * [`trace`] — lock-free, allocation-free spans, counters, gauges and
//!   latency histograms ([`span!`], [`counter!`], [`duration!`],
//!   [`gauge_max!`]), compiled in by the `trace` feature and inert
//!   stubs without it;
//! * [`alloc_guard`] — a counting `GlobalAlloc` wrapper the zero-alloc
//!   tests install to *prove* that the steady-state hot loops (the
//!   preconditioner apply, the Krylov iteration bodies) perform no heap
//!   allocation rather than assume it;
//! * [`testgen`] — the shared matrix/CSR input generators every
//!   property suite builds its cases from (raw data only: this crate
//!   sits below the container types);
//! * [`simd`] — dependency-free portable wide-lane chunks
//!   (`f64xN`/`f32xN`) with run-time width selection, the element type
//!   the interleaved class kernels are written against.

pub mod alloc_guard;
pub mod chaos;
pub mod check;
pub mod clock;
pub mod fault;
pub mod par;
pub mod rng;
pub mod simd;
pub mod sync;
pub mod testgen;
pub mod trace;

pub use alloc_guard::{AllocSnapshot, CountingAlloc};
pub use chaos::{ChaosPlan, SkewClock};
pub use check::run_cases;
pub use fault::{FaultClass, FaultPlan};
pub use rng::SmallRng;
pub use simd::{lane_width, Chunk, Mask, SimdElem, MAX_LANE_WIDTH};
pub use sync::{bounded, CancelToken, Receiver, RecvError, Sender, TrySendError};
