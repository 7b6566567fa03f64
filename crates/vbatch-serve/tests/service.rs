//! Integration tests of the service front door: admission control,
//! typed outcomes, quarantine, and graceful drain — all without chaos
//! (the seeded storms live in `chaos.rs`).

use std::sync::Arc;
use std::time::Duration;

use vbatch_core::BatchLayout;
use vbatch_exec::{BlockHealth, CpuSequential, HealthPolicy, PrecisionPolicy, SizeClassHandle};
use vbatch_rt::chaos::ChaosPlan;
use vbatch_rt::testgen::hashed_dense;
use vbatch_serve::{
    ConfigError, Outcome, RejectReason, ServeConfig, Service, SolveRequest, TenantId,
};

const FAR_FUTURE: Duration = Duration::from_secs(60);

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((seed as usize + i) % 5) as f64)
        .collect()
}

fn request(service: &Service<f64>, tenant: u64, n: usize, seed: u64) -> SolveRequest<f64> {
    SolveRequest {
        tenant: TenantId(tenant),
        n,
        matrix: hashed_dense(n, seed),
        rhs: rhs_for(n, seed),
        deadline_ns: service.deadline_in(FAR_FUTURE),
    }
}

/// The solo reference for a system: one member, solved through a
/// handle with the *same class capacity* the service uses, so the
/// pinned kernel choice matches.
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

#[test]
fn happy_path_matches_solo_reference_bitwise() {
    let cfg = ServeConfig::default();
    let service = Service::<f64>::start(cfg.clone()).expect("start");
    let mut submitted = Vec::new();
    for t in 0..6u64 {
        let n = 4 + (t as usize % 3);
        let req = request(&service, t, n, 100 + t);
        submitted.push((
            req.n,
            req.matrix.clone(),
            req.rhs.clone(),
            service.submit(req),
        ));
    }
    for (n, matrix, rhs, ticket) in submitted {
        let outcome = ticket.wait();
        let Outcome::Solved { solution, status } = outcome else {
            panic!("healthy system not solved: {outcome:?}");
        };
        assert_eq!(status.health, BlockHealth::Healthy);
        let reference = solo_reference(&cfg, n, &matrix, &rhs);
        for (a, b) in solution.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "service result differs from solo");
        }
    }
    service.shutdown();
}

#[test]
fn expired_deadline_is_rejected_at_admission() {
    let service = Service::<f64>::start(ServeConfig::default()).expect("start");
    let mut req = request(&service, 1, 4, 7);
    req.deadline_ns = 0;
    match service.submit(req).wait() {
        Outcome::Rejected(RejectReason::DeadlineExpired) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn oversized_and_malformed_are_typed_rejections() {
    let cfg = ServeConfig {
        max_order: 8,
        ..ServeConfig::default()
    };
    let service = Service::<f64>::start(cfg).expect("start");

    let req = request(&service, 1, 9, 3);
    match service.submit(req).wait() {
        Outcome::Rejected(RejectReason::Oversized { n: 9, max_order: 8 }) => {}
        other => panic!("expected Oversized, got {other:?}"),
    }

    let mut req = request(&service, 1, 4, 3);
    req.matrix.pop();
    match service.submit(req).wait() {
        Outcome::Rejected(RejectReason::Malformed) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }

    let mut req = request(&service, 1, 4, 3);
    req.rhs.push(0.0);
    assert!(matches!(
        service.submit(req).wait(),
        Outcome::Rejected(RejectReason::Malformed)
    ));
    service.shutdown();
}

#[test]
fn singular_and_nonfinite_systems_degrade_and_quarantine() {
    let cfg = ServeConfig::default();
    let service = Service::<f64>::start(cfg).expect("start");

    // a singular system: zero column
    let n = 4;
    let mut singular = hashed_dense(n, 5);
    for i in 0..n {
        singular[2 * n + i] = 0.0;
    }
    let req = SolveRequest {
        tenant: TenantId(66),
        n,
        matrix: singular,
        rhs: rhs_for(n, 5),
        deadline_ns: service.deadline_in(FAR_FUTURE),
    };
    match service.submit(req).wait() {
        Outcome::Degraded {
            reason,
            status,
            solution,
        } => {
            assert_eq!(reason, BlockHealth::Singular);
            assert!(status.is_fallback());
            assert!(solution.iter().all(|v| v.is_finite()));
        }
        other => panic!("expected Degraded(Singular), got {other:?}"),
    }
    assert_eq!(service.quarantined_tenants(), 1);

    // a NaN system from another tenant
    let mut nan = hashed_dense(n, 6);
    nan[1] = f64::NAN;
    let req = SolveRequest {
        tenant: TenantId(67),
        n,
        matrix: nan,
        rhs: rhs_for(n, 6),
        deadline_ns: service.deadline_in(FAR_FUTURE),
    };
    match service.submit(req).wait() {
        Outcome::Degraded { reason, .. } => assert_eq!(reason, BlockHealth::NonFinite),
        other => panic!("expected Degraded(NonFinite), got {other:?}"),
    }
    assert_eq!(service.quarantined_tenants(), 2);

    // the quarantined tenant is still served (solo batches), and a
    // streak of clean solves releases it
    for s in 0..3u64 {
        let req = request(&service, 66, n, 200 + s);
        assert!(service.submit(req).wait().is_solved());
    }
    assert_eq!(service.quarantined_tenants(), 1, "clean streak releases");
    service.shutdown();
}

#[test]
fn stop_admission_rejects_new_but_answers_queued() {
    let service = Service::<f64>::start(ServeConfig::default()).expect("start");
    let tickets: Vec<_> = (0..8u64)
        .map(|t| service.submit(request(&service, t, 5, 300 + t)))
        .collect();
    service.stop_admission();
    match service.submit(request(&service, 9, 5, 999)).wait() {
        Outcome::Rejected(RejectReason::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    for t in tickets {
        assert!(
            !t.wait().is_rejected(),
            "queued work must still reach its outcome"
        );
    }
    service.shutdown();
}

/// Under a backlog the queue never runs dry, so only the deadline
/// watermark can flush a partial class of a rare order in time. Delayed
/// flushes of two-member order-4 classes keep the queue busy for about
/// 300 ms; an order-5 request queued near the front, with 100 ms of
/// budget against a 1 s watermark, must flush at its admission instead
/// of expiring in the batcher behind the stream.
#[test]
fn the_deadline_watermark_fires_under_a_backlog() {
    let cfg = ServeConfig {
        shards: 1,
        queue_capacity: 1024,
        class_capacity: 2,
        flush_watermark: Duration::from_secs(1),
        idle_tick: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let chaos = Arc::new(ChaosPlan::new(11).with_worker_delays(1.0, Duration::from_millis(4)));
    let service = Service::<f64>::builder(cfg)
        .chaos(chaos)
        .start()
        .expect("start");
    let stream = |from: u64, to: u64| -> Vec<_> {
        (from..to)
            .map(|s| service.submit(request(&service, s % 4, 4, s)))
            .collect()
    };
    let mut tickets = stream(0, 8);
    let mut rare = request(&service, 9, 5, 77);
    rare.deadline_ns = service.deadline_in(Duration::from_millis(100));
    let rare = service.submit(rare);
    tickets.extend(stream(8, 308));
    match rare.wait() {
        Outcome::Solved { .. } => {}
        other => panic!("the rare-order request must flush at the watermark: {other:?}"),
    }
    for t in tickets {
        assert!(t.wait().is_solved());
    }
    service.shutdown();
}

#[test]
fn invalid_configs_are_typed_errors() {
    let cfg = ServeConfig {
        shards: 0,
        ..ServeConfig::default()
    };
    assert!(matches!(
        Service::<f64>::start(cfg),
        Err(ConfigError::ZeroShards)
    ));
    let cfg = ServeConfig {
        idle_tick: Duration::ZERO,
        ..ServeConfig::default()
    };
    match Service::<f64>::start(cfg) {
        Err(e @ ConfigError::ZeroIdleTick) => {
            assert!(e.to_string().contains("idle_tick"));
        }
        other => panic!("expected ZeroIdleTick, got {:?}", other.err()),
    }
}

#[test]
fn tenants_map_to_stable_shards() {
    let cfg = ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    };
    let service = Service::<f64>::start(cfg).expect("start");
    for t in 0..64u64 {
        let a = service.shard_of(TenantId(t));
        let b = service.shard_of(TenantId(t));
        assert_eq!(a, b);
        assert!(a < 4);
    }
    // dense ids spread over shards rather than collapsing onto one
    let mut seen = [false; 4];
    for t in 0..64u64 {
        seen[service.shard_of(TenantId(t))] = true;
    }
    assert!(seen.iter().all(|&s| s), "all shards reachable: {seen:?}");
    service.shutdown();
}
