//! Deterministic chaos planning for the batched-solve service.
//!
//! Like [`crate::fault`] for numerics, this module makes the *runtime*
//! failure modes reproducible: a seeded [`ChaosPlan`] decides which
//! shard flushes get artificially delayed workers, which tenants submit
//! poisoned (singular / non-finite) systems, how large each arrival
//! burst is, and how a skewed clock misbehaves — all as pure
//! bookkeeping, so the property suites in `vbatch-serve` can drive the
//! service through the same storm on every run and assert exact
//! outcomes.
//!
//! Determinism contract: every query is a pure function of
//! `(seed, arguments)` — no interior state, no ordering sensitivity —
//! so concurrent shard workers can consult one shared plan and still
//! reproduce bit-identical schedules across runs and thread counts.

use crate::clock::RawClock;
use crate::rng::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A seeded, stateless chaos schedule for service-level property tests.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    seed: u64,
    /// Fraction of shard flushes whose worker sleeps before executing.
    delay_fraction: f64,
    /// Upper bound of an injected worker delay.
    max_delay: Duration,
    /// Fraction of tenants whose submissions are poisoned.
    poison_fraction: f64,
    /// Burst arrivals: every `burst_every`-th arrival step delivers
    /// `burst_len` requests at once instead of one.
    burst_every: usize,
    burst_len: usize,
}

impl ChaosPlan {
    /// A plan with no chaos; enable pieces with the builder methods.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            delay_fraction: 0.0,
            max_delay: Duration::ZERO,
            poison_fraction: 0.0,
            burst_every: 0,
            burst_len: 1,
        }
    }

    /// Delay `fraction` of shard flushes by up to `max_delay`.
    pub fn with_worker_delays(mut self, fraction: f64, max_delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "delay fraction {fraction}");
        self.delay_fraction = fraction;
        self.max_delay = max_delay;
        self
    }

    /// Poison `fraction` of tenant ids ([`ChaosPlan::is_poisoned`]).
    pub fn with_poisoned_tenants(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "poison fraction {fraction}"
        );
        self.poison_fraction = fraction;
        self
    }

    /// Make every `every`-th arrival step a burst of `len` requests.
    pub fn with_bursts(mut self, every: usize, len: usize) -> Self {
        assert!(len >= 1, "burst length must be at least 1");
        self.burst_every = every;
        self.burst_len = len;
        self
    }

    /// The seed all decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hash the query coordinates into an independent stream.
    fn stream(&self, salt: u64, a: u64, b: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed
                ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ a.wrapping_mul(0xbf58_476d_1ce4_e5b9)
                ^ b.wrapping_mul(0x94d0_49bb_1331_11eb),
        )
    }

    /// Injected worker delay before flush number `flush` on `shard`
    /// (`None` for the undelayed majority). Deterministic per
    /// `(seed, shard, flush)`.
    pub fn worker_delay(&self, shard: usize, flush: u64) -> Option<Duration> {
        if self.delay_fraction <= 0.0 || self.max_delay.is_zero() {
            return None;
        }
        let mut rng = self.stream(1, shard as u64, flush);
        if (rng.gen_range(0u64..1_000_000) as f64) < self.delay_fraction * 1e6 {
            let ns = rng.gen_range(0..self.max_delay.as_nanos().max(1) as u64);
            Some(Duration::from_nanos(ns))
        } else {
            None
        }
    }

    /// `true` when submissions from `tenant` carry poisoned systems.
    /// Deterministic per `(seed, tenant)`.
    pub fn is_poisoned(&self, tenant: u64) -> bool {
        if self.poison_fraction <= 0.0 {
            return false;
        }
        let mut rng = self.stream(2, tenant, 0);
        (rng.gen_range(0u64..1_000_000) as f64) < self.poison_fraction * 1e6
    }

    /// Number of requests arriving at open-loop step `step` (1 outside
    /// bursts, `burst_len` on every `burst_every`-th step).
    pub fn burst_len(&self, step: u64) -> usize {
        if self.burst_every > 0 && step % self.burst_every as u64 == 0 {
            self.burst_len
        } else {
            1
        }
    }
}

/// A deterministic misbehaving clock for [`crate::clock::MonoTimer`]:
/// advances `tick_ns` per reading but steps *backwards* by `skew_ns`
/// every `skew_every`-th reading — the VM clock-step scenario the
/// monotonic clamp exists for. Service deadline logic tested against
/// this clock must never observe time running backwards.
#[derive(Debug)]
pub struct SkewClock {
    reads: AtomicU64,
    tick_ns: u64,
    skew_every: u64,
    skew_ns: u64,
}

impl SkewClock {
    /// A clock advancing `tick_ns` per read, jumping back `skew_ns`
    /// every `skew_every` reads (0 disables skew).
    pub fn new(tick_ns: u64, skew_every: u64, skew_ns: u64) -> Self {
        SkewClock {
            reads: AtomicU64::new(0),
            tick_ns,
            skew_every,
            skew_ns,
        }
    }
}

impl RawClock for SkewClock {
    fn raw_ns(&self) -> u64 {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        let base = n.saturating_mul(self.tick_ns);
        if self.skew_every > 0 && n % self.skew_every == 0 {
            base.saturating_sub(self.skew_ns)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MonoTimer;

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let plan = ChaosPlan::new(42)
            .with_worker_delays(0.5, Duration::from_millis(5))
            .with_poisoned_tenants(0.25)
            .with_bursts(10, 7);
        let again = plan.clone();
        // query in different orders: same answers
        let fwd: Vec<_> = (0..64).map(|t| plan.is_poisoned(t)).collect();
        let rev: Vec<_> = (0..64).rev().map(|t| again.is_poisoned(t)).collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
        for shard in 0..4 {
            for flush in 0..32 {
                assert_eq!(
                    plan.worker_delay(shard, flush),
                    again.worker_delay(shard, flush)
                );
            }
        }
    }

    #[test]
    fn fractions_are_roughly_realized() {
        let plan = ChaosPlan::new(7)
            .with_worker_delays(0.3, Duration::from_millis(1))
            .with_poisoned_tenants(0.2);
        let poisoned = (0..10_000).filter(|&t| plan.is_poisoned(t)).count();
        assert!(
            (1_600..=2_400).contains(&poisoned),
            "poisoned {poisoned}/10000 vs fraction 0.2"
        );
        let delayed = (0..10_000u64)
            .filter(|&f| plan.worker_delay(0, f).is_some())
            .count();
        assert!(
            (2_400..=3_600).contains(&delayed),
            "delayed {delayed}/10000 vs fraction 0.3"
        );
        // delays respect the bound
        for f in 0..1_000 {
            if let Some(d) = plan.worker_delay(1, f) {
                assert!(d <= Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn zero_chaos_plan_is_inert() {
        let plan = ChaosPlan::new(3);
        assert!((0..100).all(|t| !plan.is_poisoned(t)));
        assert!((0..100u64).all(|f| plan.worker_delay(0, f).is_none()));
        assert!((0..100u64).all(|s| plan.burst_len(s) == 1));
    }

    #[test]
    fn bursts_fire_on_schedule() {
        let plan = ChaosPlan::new(0).with_bursts(5, 9);
        assert_eq!(plan.burst_len(0), 9);
        assert_eq!(plan.burst_len(1), 1);
        assert_eq!(plan.burst_len(5), 9);
        assert_eq!(plan.burst_len(7), 1);
        assert_eq!(plan.burst_len(10), 9);
    }

    #[test]
    fn skew_clock_regresses_but_mono_timer_does_not() {
        let raw = SkewClock::new(100, 4, 250);
        // raw readings do regress at every 4th read
        let mut raws = Vec::new();
        for _ in 0..12 {
            raws.push(raw.raw_ns());
        }
        assert!(
            raws.windows(2).any(|w| w[1] < w[0]),
            "skew clock must actually step backwards: {raws:?}"
        );
        // the clamped timer never does
        let timer = MonoTimer::new(SkewClock::new(100, 4, 250));
        let mut prev = 0;
        for _ in 0..64 {
            let t = timer.now_ns();
            assert!(t >= prev, "clamped timer regressed: {t} < {prev}");
            prev = t;
        }
    }
}
