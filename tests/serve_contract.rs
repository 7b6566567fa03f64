//! Liveness contract of a running service: every request submitted to a
//! `Service` started with its defaults resolves exactly once by the time
//! `shutdown` returns, healthy systems come back solved to working
//! accuracy, and bad ones come back typed; a lone request is answered
//! once the queue runs dry, not when its class fills or a tick fires,
//! with the bits a full class gives it; a flush rejects what expired
//! while queued and quarantines the tenant of a system that failed
//! triage. Apart from the lone request's 5 s window, no assertion reads
//! a clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vbatch_core::{gemv_neg_acc, BatchLayout, DenseMat};
use vbatch_exec::{BlockHealth, CpuSequential, HealthPolicy, PrecisionPolicy, SizeClassHandle};
use vbatch_rt::{testgen, SmallRng};
use vbatch_serve::{
    Outcome, RejectReason, ServeConfig, Service, ServiceClock, SolveRequest, TenantId,
};

/// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)` for a column-major `A`.
fn backward_error(n: usize, a: &[f64], x: &[f64], b: &[f64]) -> f64 {
    let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let mut r = b.to_vec();
    gemv_neg_acc(n, n, a, x, &mut r);
    inf(&r) / (DenseMat::from_col_major(n, n, a).norm_inf() * inf(x) + inf(b))
}

#[test]
fn every_request_to_a_running_service_resolves_once_and_right() {
    let cfg = ServeConfig::default();
    let service = Service::<f64>::start(cfg.clone()).expect("start");
    let mut rng = SmallRng::seed_from_u64(18);

    // 200 requests of orders 4..=12 from 8 tenants; three are bad
    let (singular, nan, oversized) = (37, 90, 141);
    let mut submitted = Vec::new();
    for r in 0..200usize {
        let n = if r == oversized {
            cfg.max_order + 1
        } else {
            rng.gen_range(4usize..13)
        };
        let mut matrix = testgen::dd_dense(&mut rng, n);
        if r == singular {
            matrix = testgen::singular_dense(&mut rng, n);
        } else if r == nan {
            matrix[n + 1] = f64::NAN;
        }
        let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let ticket = service.submit(SolveRequest {
            tenant: TenantId(r as u64 % 8),
            n,
            matrix: matrix.clone(),
            rhs: rhs.clone(),
            deadline_ns: service.deadline_in(Duration::from_secs(30)),
        });
        submitted.push((n, matrix, rhs, ticket));
    }
    // the drain answers everything admitted, so nothing below can block
    service.shutdown();

    let mut solved = 0;
    for (r, (n, matrix, rhs, ticket)) in submitted.into_iter().enumerate() {
        let outcome = match ticket.try_wait() {
            Ok(outcome) => outcome,
            Err(_) => panic!("request {r} (order {n}) has no outcome after shutdown"),
        };
        match outcome {
            Outcome::Degraded {
                reason, solution, ..
            } if r == singular || r == nan => {
                let want = if r == nan {
                    BlockHealth::NonFinite
                } else {
                    BlockHealth::Singular
                };
                assert_eq!(reason, want, "request {r}");
                assert!(solution.iter().all(|v| v.is_finite()), "request {r}");
            }
            Outcome::Rejected(RejectReason::Oversized { n: got, max_order }) if r == oversized => {
                assert_eq!((got, max_order), (n, cfg.max_order));
            }
            Outcome::Solved { solution, .. } if ![singular, nan, oversized].contains(&r) => {
                assert!(solution.iter().all(|v| v.is_finite()), "request {r}");
                let berr = backward_error(n, &matrix, &solution, &rhs);
                assert!(berr <= 1e-10, "request {r}: backward error {berr:e}");
                solved += 1;
            }
            other => panic!("request {r} (order {n}): unexpected {other:?}"),
        }
    }
    assert_eq!(solved, 197);
}

#[test]
fn a_lone_request_is_answered_when_the_queue_runs_dry() {
    let cfg = ServeConfig {
        shards: 1,
        class_capacity: 32,
        idle_tick: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let service = Service::<f64>::start(cfg.clone()).expect("start");
    let n = 6;
    let mut rng = SmallRng::seed_from_u64(32);
    let systems: Vec<(Vec<f64>, Vec<f64>)> = (0..cfg.class_capacity)
        .map(|_| {
            let rhs = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
            (testgen::dd_dense(&mut rng, n), rhs)
        })
        .collect();
    let lone = 13;
    let (matrix, rhs) = systems[lone].clone();
    let mut ticket = service.submit(SolveRequest {
        tenant: TenantId(1),
        n,
        matrix,
        rhs,
        deadline_ns: service.deadline_in(Duration::from_secs(30)),
    });
    // the class would wait 31 more requests and the idle tick 600 s; a
    // drained queue flushes at once
    let start = Instant::now();
    let outcome = loop {
        match ticket.try_wait() {
            Ok(outcome) => break outcome,
            Err(pending) if start.elapsed() < Duration::from_secs(5) => {
                ticket = pending;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => panic!("a lone request waited 5 s for its class to fill"),
        }
    };
    let Outcome::Solved { solution, .. } = outcome else {
        panic!("lone request not solved: {outcome:?}");
    };

    // the same system as member `lone` of a full class of 32
    let mut handle = SizeClassHandle::<f64>::new(
        n,
        cfg.class_capacity,
        Arc::new(CpuSequential),
        HealthPolicy::guarded::<f64>(),
        BatchLayout::Blocked,
        PrecisionPolicy::FullDp,
    );
    let blocks: Vec<&[f64]> = systems.iter().map(|(a, _)| a.as_slice()).collect();
    let mut xs: Vec<Vec<f64>> = systems.iter().map(|(_, b)| b.clone()).collect();
    let mut refs: Vec<&mut [f64]> = xs.iter_mut().map(|x| x.as_mut_slice()).collect();
    handle.solve_batch(&blocks, &mut refs);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&solution),
        bits(&xs[lone]),
        "a lone member's bits differ from a full class's"
    );
    service.shutdown();
}

/// A clock that advances one nanosecond per reading. With one shard, an
/// idle tick that never fires and one request in flight at a time, the
/// readings are a fixed sequence per request: `submit`, the worker's
/// admission (its watermark check judges that same reading), the flush.
struct Ticking(AtomicU64);

impl ServiceClock for Ticking {
    fn now_ns(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }
}

#[test]
fn a_flush_rejects_what_expired_in_the_queue_and_quarantines_what_failed() {
    let cfg = ServeConfig {
        shards: 1,
        flush_watermark: Duration::from_micros(1),
        idle_tick: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let service = Service::<f64>::builder(cfg)
        .clock(Arc::new(Ticking(AtomicU64::new(0))))
        .start()
        .expect("start");
    let mut rng = SmallRng::seed_from_u64(7);
    // `ticks` readings after `now_ns`: admitted before the deadline, and
    // the watermark check at admission flushes the request at once
    let solve = |tenant: u64, matrix: Vec<f64>, ticks: u64| {
        let deadline_ns = service.now_ns() + ticks;
        let rhs = vec![1.0; 4];
        service
            .submit(SolveRequest {
                tenant: TenantId(tenant),
                n: 4,
                matrix,
                rhs,
                deadline_ns,
            })
            .wait()
    };
    // due one reading after admission, so past due when the flush reads
    // the clock
    let expired = solve(1, testgen::dd_dense(&mut rng, 4), 3);
    assert!(
        matches!(expired, Outcome::Rejected(RejectReason::DeadlineExpired)),
        "expired in the queue: {expired:?}"
    );
    let singular = solve(2, testgen::singular_dense(&mut rng, 4), 100);
    assert!(
        matches!(
            singular,
            Outcome::Degraded {
                reason: BlockHealth::Singular,
                ..
            }
        ),
        "{singular:?}"
    );
    assert_eq!(service.quarantined_tenants(), 1, "tenant 2 is quarantined");
    service.shutdown();
}
