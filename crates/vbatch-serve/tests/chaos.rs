//! Seeded chaos property suite: drive the service through
//! deterministic storms — delayed workers, poisoned tenants, arrival
//! bursts, a skewed clock — and assert the three service invariants:
//!
//! * **liveness** — every submitted request resolves to exactly one
//!   outcome, storm or not, drain or not;
//! * **isolation** — a healthy tenant's solved bits are identical to a
//!   solo run of the same system, no matter which chaos tenants it was
//!   co-batched with;
//! * **bounded memory** — admission-queue depth never exceeds the
//!   configured capacity; overload sheds with `QueueFull` instead of
//!   growing.

use std::sync::Arc;
use std::time::Duration;

use vbatch_core::BatchLayout;
use vbatch_exec::{CpuSequential, HealthPolicy, PrecisionPolicy, SizeClassHandle};
use vbatch_rt::chaos::{ChaosPlan, SkewClock};
use vbatch_rt::check::run_cases;
use vbatch_rt::clock::MonoTimer;
use vbatch_rt::testgen::hashed_dense;
use vbatch_serve::{
    Outcome, RejectReason, ServeConfig, Service, ServiceBuilder, SolveRequest, TenantId,
};

const FAR_FUTURE: Duration = Duration::from_secs(120);

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((seed as usize + i) % 7) as f64)
        .collect()
}

/// A poisoned tenant's system: singular (zero row) or non-finite,
/// deterministically by tenant id.
fn poisoned_matrix(n: usize, tenant: u64) -> Vec<f64> {
    let mut m = hashed_dense(n, tenant);
    if tenant % 2 == 0 {
        for j in 0..n {
            m[j * n + 1] = 0.0; // zero row: singular
        }
    } else {
        m[0] = f64::NAN;
    }
    m
}

fn solo_reference(cfg: &ServeConfig, n: usize, matrix: &[f64], rhs: &[f64]) -> Vec<f64> {
    let mut h = SizeClassHandle::<f64>::new(
        n,
        cfg.class_capacity,
        Arc::new(CpuSequential),
        HealthPolicy::guarded::<f64>(),
        BatchLayout::Blocked,
        PrecisionPolicy::FullDp,
    );
    let mut x = rhs.to_vec();
    let mut refs: Vec<&mut [f64]> = vec![x.as_mut_slice()];
    h.solve_batch(&[matrix], &mut refs);
    x
}

/// Liveness under the full storm: delays + bursts + poisoned tenants +
/// tight-ish deadlines. Every ticket resolves; the outcome tally adds
/// up to the number of submissions.
#[test]
fn liveness_every_request_gets_exactly_one_outcome() {
    run_cases("serve-liveness", 4, |rng, case| {
        let chaos = Arc::new(
            ChaosPlan::new(0xC0FFEE + case as u64)
                .with_worker_delays(0.3, Duration::from_millis(2))
                .with_poisoned_tenants(0.25)
                .with_bursts(7, 5),
        );
        let cfg = ServeConfig {
            shards: 2,
            queue_capacity: 16,
            class_capacity: 4,
            max_order: 12,
            flush_watermark: Duration::from_millis(1),
            idle_tick: Duration::from_millis(1),
        };
        let service = ServiceBuilder::<f64>::new(cfg)
            .chaos(Arc::clone(&chaos))
            .start()
            .expect("start");

        let mut tickets = Vec::new();
        let mut submitted = 0usize;
        let mut step = 0u64;
        while submitted < 120 {
            let burst = chaos.burst_len(step);
            step += 1;
            for _ in 0..burst {
                let tenant = rng.gen_range(0usize..24) as u64;
                let n = 3 + (rng.gen_range(0usize..4));
                let matrix = if chaos.is_poisoned(tenant) {
                    poisoned_matrix(n, tenant)
                } else {
                    hashed_dense(n, 1000 + tenant)
                };
                // a mix of generous and very tight deadlines
                let budget = if rng.gen_bool(0.2) {
                    Duration::from_micros(rng.gen_range(0u64..1500))
                } else {
                    FAR_FUTURE
                };
                tickets.push(service.submit(SolveRequest {
                    tenant: TenantId(tenant),
                    n,
                    matrix,
                    rhs: rhs_for(n, tenant),
                    deadline_ns: service.deadline_in(budget),
                }));
                submitted += 1;
            }
        }
        service.stop_admission();
        let mut solved = 0usize;
        let mut degraded = 0usize;
        let mut rejected = 0usize;
        for t in tickets {
            match t.wait() {
                Outcome::Solved { .. } => solved += 1,
                Outcome::Degraded { .. } => degraded += 1,
                Outcome::Rejected(_) => rejected += 1,
            }
        }
        assert_eq!(solved + degraded + rejected, submitted);
        assert!(solved > 0, "storm must not reject everything");
        service.shutdown();
    });
}

/// Bitwise isolation: one shard, healthy and poisoned tenants
/// interleaved so they co-batch, generous deadlines so nothing
/// expires. Every healthy tenant's solution must equal its solo run
/// bit for bit.
#[test]
fn isolation_chaos_tenants_never_perturb_healthy_bits() {
    run_cases("serve-isolation", 4, |rng, case| {
        let chaos = Arc::new(
            ChaosPlan::new(0xBAD5EED + case as u64)
                .with_poisoned_tenants(0.4)
                .with_worker_delays(0.2, Duration::from_millis(1)),
        );
        let cfg = ServeConfig {
            shards: 1,
            queue_capacity: 64,
            class_capacity: 6,
            max_order: 10,
            flush_watermark: Duration::from_millis(5),
            idle_tick: Duration::from_millis(1),
        };
        let service = ServiceBuilder::<f64>::new(cfg.clone())
            .chaos(Arc::clone(&chaos))
            .start()
            .expect("start");

        let mut healthy = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..60u64 {
            let tenant = rng.gen_range(0usize..16) as u64;
            let n = 4 + (i % 3) as usize;
            let seed = 5000 + i;
            let (matrix, is_healthy) = if chaos.is_poisoned(tenant) {
                (poisoned_matrix(n, tenant), false)
            } else {
                (hashed_dense(n, seed), true)
            };
            let rhs = rhs_for(n, seed);
            let ticket = service.submit(SolveRequest {
                tenant: TenantId(tenant),
                n,
                matrix: matrix.clone(),
                rhs: rhs.clone(),
                deadline_ns: service.deadline_in(FAR_FUTURE),
            });
            tickets.push(ticket);
            if is_healthy {
                healthy.push(Some((n, matrix, rhs)));
            } else {
                healthy.push(None);
            }
        }
        service.stop_admission();
        for (ticket, reference) in tickets.into_iter().zip(healthy) {
            let outcome = ticket.wait();
            let Some((n, matrix, rhs)) = reference else {
                continue; // poisoned tenants degrade; liveness covers them
            };
            match outcome {
                Outcome::Solved { solution, .. } => {
                    let solo = solo_reference(&cfg, n, &matrix, &rhs);
                    for (a, b) in solution.iter().zip(&solo) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "healthy tenant's bits depend on co-batching"
                        );
                    }
                }
                Outcome::Rejected(RejectReason::QueueFull { .. }) => {}
                other => panic!("healthy tenant not solved: {other:?}"),
            }
        }
        service.shutdown();
    });
}

/// Bounded memory: a deliberately slow service (every flush delayed)
/// with a tiny queue. Depth never exceeds capacity, overload sheds
/// with QueueFull + a positive retry hint, and everything still
/// resolves.
#[test]
fn backpressure_bounds_queue_depth_and_sheds() {
    let chaos = Arc::new(ChaosPlan::new(7).with_worker_delays(1.0, Duration::from_millis(3)));
    let cfg = ServeConfig {
        shards: 1,
        queue_capacity: 4,
        class_capacity: 1, // every admit flushes (slowly)
        max_order: 8,
        flush_watermark: Duration::from_micros(100),
        idle_tick: Duration::from_millis(1),
    };
    let service = ServiceBuilder::<f64>::new(cfg)
        .chaos(chaos)
        .start()
        .expect("start");

    let mut tickets = Vec::new();
    let mut max_depth = 0usize;
    for i in 0..80u64 {
        tickets.push(service.submit(SolveRequest {
            tenant: TenantId(i % 8),
            n: 4,
            matrix: hashed_dense(4, i),
            rhs: rhs_for(4, i),
            deadline_ns: service.deadline_in(FAR_FUTURE),
        }));
        let depth = service.queue_depth(0);
        max_depth = max_depth.max(depth);
        assert!(depth <= 4, "queue depth {depth} exceeded capacity 4");
    }
    service.stop_admission();
    let mut shed = 0usize;
    let mut served = 0usize;
    for t in tickets {
        match t.wait() {
            Outcome::Rejected(RejectReason::QueueFull { retry_after }) => {
                assert!(retry_after > Duration::ZERO, "retry hint must be positive");
                shed += 1;
            }
            Outcome::Solved { .. } | Outcome::Degraded { .. } => served += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(shed + served, 80);
    assert!(
        shed > 0,
        "a 3 ms/flush service fed 80 fast requests must shed"
    );
    assert!(served > 0, "shedding everything means the worker starved");
    service.shutdown();
}

/// Deadline handling against a clock that steps backwards: behind the
/// monotonic clamp, time never regresses, expired requests are
/// cancelled (not solved), live ones are solved, and nothing hangs.
#[test]
fn skewed_clock_never_hangs_or_revives_deadlines() {
    // ticks 1 µs per reading, steps back 5 µs every 64th reading
    let clock = Arc::new(MonoTimer::new(SkewClock::new(1_000, 64, 5_000)));
    let cfg = ServeConfig {
        shards: 1,
        queue_capacity: 32,
        class_capacity: 4,
        max_order: 8,
        flush_watermark: Duration::from_micros(50),
        idle_tick: Duration::from_millis(1),
    };
    let service = ServiceBuilder::<f64>::new(cfg)
        .clock(clock)
        .start()
        .expect("start");

    let mut tickets = Vec::new();
    let mut expect_expired = 0usize;
    for i in 0..40u64 {
        let expired = i % 4 == 0;
        let deadline_ns = if expired {
            service.now_ns() // already due
        } else {
            service.now_ns() + 10_000_000_000 // far future in fake time
        };
        if expired {
            expect_expired += 1;
        }
        tickets.push(service.submit(SolveRequest {
            tenant: TenantId(i % 6),
            n: 4,
            matrix: hashed_dense(4, i),
            rhs: rhs_for(4, i),
            deadline_ns,
        }));
    }
    service.stop_admission();
    let mut expired_seen = 0usize;
    for t in tickets {
        match t.wait() {
            Outcome::Rejected(RejectReason::DeadlineExpired) => expired_seen += 1,
            Outcome::Solved { .. } => {}
            other => panic!("unexpected outcome under skewed clock: {other:?}"),
        }
    }
    assert_eq!(
        expired_seen, expect_expired,
        "every already-due request expires, every future one solves"
    );
    service.shutdown();
}

/// Drain liveness: shut down with work still queued; every ticket
/// still resolves (drain flushes are real solves, not rejections).
#[test]
fn drain_answers_every_queued_request() {
    run_cases("serve-drain", 3, |rng, _case| {
        let cfg = ServeConfig {
            shards: 2,
            queue_capacity: 64,
            class_capacity: 8,
            max_order: 8,
            flush_watermark: Duration::from_secs(1),
            idle_tick: Duration::from_millis(50), // long: drain does the flushing
        };
        let service = Service::<f64>::start(cfg).expect("start");
        let tickets: Vec<_> = (0..32u64)
            .map(|i| {
                let n = 3 + rng.gen_range(0usize..3);
                service.submit(SolveRequest {
                    tenant: TenantId(i),
                    n,
                    matrix: hashed_dense(n, i),
                    rhs: rhs_for(n, i),
                    deadline_ns: service.deadline_in(FAR_FUTURE),
                })
            })
            .collect();
        service.shutdown(); // immediate drain
        for t in tickets {
            match t.wait() {
                Outcome::Solved { .. } => {}
                other => panic!("drained request lost its solve: {other:?}"),
            }
        }
    });
}
