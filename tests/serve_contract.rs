//! Liveness contract of a running service: every request submitted to a
//! `Service` started with its defaults resolves exactly once by the time
//! `shutdown` returns, healthy systems come back solved to working
//! accuracy, and bad ones come back typed. No assertion reads a clock.

use std::time::Duration;

use vbatch_core::{gemv_neg_acc, DenseMat};
use vbatch_exec::BlockHealth;
use vbatch_rt::{testgen, SmallRng};
use vbatch_serve::{Outcome, RejectReason, ServeConfig, Service, SolveRequest, TenantId};

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
