//! Seeded open-loop load experiment for the `vbatch-serve` runtime:
//! submit a paced request stream at three load levels (paced light,
//! paced heavy, unpaced saturation) and report delivered throughput,
//! client-observed latency percentiles, and the shed rate at each.
//!
//! Open-loop means arrivals do not wait for completions — the paced
//! levels hold a target inter-arrival gap regardless of service state,
//! so queue growth and shedding reflect the service, not the client.
//! A drainer thread waits tickets as they resolve, stamping
//! client-side latency (submit to outcome).
//!
//! ```text
//! cargo run --release --bin serve_load            # full run
//! cargo run --release --bin serve_load -- --requests 2000   # CI smoke
//! ```
//!
//! CSV artifact: `target/experiments/serve_load.csv`.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use vbatch_bench::write_csv;
use vbatch_rt::clock::monotonic_ns;
use vbatch_rt::rng::SmallRng;
use vbatch_rt::testgen::hashed_dense;
use vbatch_serve::{Outcome, RejectReason, ServeConfig, Service, SolveRequest, TenantId};

const HEADER: [&str; 11] = [
    "level",
    "target_rps",
    "submitted",
    "solved",
    "degraded",
    "shed",
    "expired",
    "throughput_rps",
    "p50_us",
    "p99_us",
    "shed_rate",
];

struct LevelReport {
    level: &'static str,
    target_rps: u64,
    submitted: usize,
    solved: usize,
    degraded: usize,
    shed: usize,
    expired: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

impl LevelReport {
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.submitted.max(1) as f64
    }
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((q * (sorted_ns.len() - 1) as f64).round() as usize).min(sorted_ns.len() - 1);
    sorted_ns[idx] as f64 / 1e3
}

/// Run one load level: `target_rps == 0` means unpaced (submit as fast
/// as the client thread can).
fn run_level(level: &'static str, target_rps: u64, requests: usize, seed: u64) -> LevelReport {
    let cfg = ServeConfig {
        shards: 2,
        queue_capacity: 256,
        max_order: 16,
        class_capacity: 16,
        flush_watermark: Duration::from_micros(200),
        idle_tick: Duration::from_micros(500),
    };
    let service = Service::<f64>::start(cfg).expect("start service");
    let mut rng = SmallRng::seed_from_u64(seed);

    // drainer: waits tickets as they arrive, stamps client latency
    let (tx, rx) = mpsc::channel::<(vbatch_serve::Ticket<f64>, u64)>();
    let drainer = thread::spawn(move || {
        let mut latencies_ns = Vec::new();
        let mut solved = 0usize;
        let mut degraded = 0usize;
        let mut shed = 0usize;
        let mut expired = 0usize;
        for (ticket, submit_ns) in rx {
            match ticket.wait() {
                Outcome::Solved { .. } => {
                    solved += 1;
                    latencies_ns.push(monotonic_ns().saturating_sub(submit_ns));
                }
                Outcome::Degraded { .. } => degraded += 1,
                Outcome::Rejected(RejectReason::QueueFull { .. }) => shed += 1,
                Outcome::Rejected(RejectReason::DeadlineExpired) => expired += 1,
                Outcome::Rejected(r) => panic!("unexpected rejection under load: {r}"),
            }
        }
        (latencies_ns, solved, degraded, shed, expired)
    });

    // target_rps == 0 means unpaced: submit as fast as possible
    let gap_ns = 1_000_000_000u64.checked_div(target_rps).unwrap_or(0);
    let t0 = monotonic_ns();
    let mut next_ns = t0;
    for i in 0..requests {
        if gap_ns > 0 {
            // open loop: hold the schedule even if the service lags
            while monotonic_ns() < next_ns {
                std::hint::spin_loop();
            }
            next_ns += gap_ns;
        }
        let tenant = TenantId(rng.gen_range(0u64..64));
        let n = 4 + rng.gen_range(0usize..4);
        let submit_ns = monotonic_ns();
        let ticket = service.submit(SolveRequest {
            tenant,
            n,
            matrix: hashed_dense(n, seed ^ i as u64),
            rhs: (0..n).map(|k| 1.0 + (k % 3) as f64).collect(),
            deadline_ns: service.deadline_in(Duration::from_secs(2)),
        });
        tx.send((ticket, submit_ns)).expect("drainer alive");
    }
    drop(tx);
    let (mut latencies_ns, solved, degraded, shed, expired) =
        drainer.join().expect("drainer panicked");
    let elapsed_s = (monotonic_ns() - t0) as f64 / 1e9;
    service.shutdown();

    latencies_ns.sort_unstable();
    LevelReport {
        level,
        target_rps,
        submitted: requests,
        solved,
        degraded,
        shed,
        expired,
        throughput_rps: (solved + degraded) as f64 / elapsed_s,
        p50_us: percentile_us(&latencies_ns, 0.50),
        p99_us: percentile_us(&latencies_ns, 0.99),
    }
}

fn parse_requests() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        let v = a
            .strip_prefix("--requests=")
            .map(str::to_string)
            .or_else(|| (a == "--requests").then(|| args.get(i + 1).cloned().unwrap_or_default()));
        if let Some(v) = v {
            match v.parse::<usize>() {
                Ok(r) if r > 0 => return r,
                _ => {
                    eprintln!("invalid --requests value {v:?}: expected a positive integer");
                    std::process::exit(2);
                }
            }
        }
    }
    20_000
}

fn main() {
    let requests = parse_requests();
    println!("== serve_load: open-loop service load, {requests} requests/level ==\n");
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12} {:>10} {:>10} {:>9}",
        "level",
        "target",
        "submitted",
        "solved",
        "shed",
        "expired",
        "thru [req/s]",
        "p50 [us]",
        "p99 [us]",
        "shed rate"
    );

    let levels: [(&'static str, u64); 3] = [("light", 20_000), ("heavy", 100_000), ("saturate", 0)];
    let mut rows = Vec::new();
    for (i, (level, rps)) in levels.into_iter().enumerate() {
        let r = run_level(level, rps, requests, 0x5EED + i as u64);
        println!(
            "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12.0} {:>10.1} {:>10.1} {:>8.1}%",
            r.level,
            if r.target_rps == 0 {
                "max".to_string()
            } else {
                r.target_rps.to_string()
            },
            r.submitted,
            r.solved,
            r.shed,
            r.expired,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.shed_rate() * 100.0
        );
        rows.push(vec![
            r.level.to_string(),
            r.target_rps.to_string(),
            r.submitted.to_string(),
            r.solved.to_string(),
            r.degraded.to_string(),
            r.shed.to_string(),
            r.expired.to_string(),
            format!("{:.0}", r.throughput_rps),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            format!("{:.4}", r.shed_rate()),
        ]);
    }
    let path = write_csv("serve_load", &HEADER, &rows);
    println!("\nwrote {}", path.display());
}
