//! The seven pinned workloads: what their inputs are, what one op is,
//! and how its output is checked. Library calls go through `layers`;
//! the checks here recompute residuals in f64 from the inputs alone.

use crate::layers::{
    self, BatchInputs, Fate, Precond, RawRequest, ServeShape, Service, SmallRng, SolveProblem,
    Ticket, Tracer,
};
use crate::spans::{Recorder, OP};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchUniform32,
    BatchRagged,
    SolveBj,
    SolveBilu,
    SolveSpike,
    ServePaced,
    ServeBurst,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::BatchUniform32,
        Workload::BatchRagged,
        Workload::SolveBj,
        Workload::SolveBilu,
        Workload::SolveSpike,
        Workload::ServePaced,
        Workload::ServeBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchUniform32 => "batch_uniform32",
            Workload::BatchRagged => "batch_ragged",
            Workload::SolveBj => "solve_bj",
            Workload::SolveBilu => "solve_bilu",
            Workload::SolveSpike => "solve_spike",
            Workload::ServePaced => "serve_paced",
            Workload::ServeBurst => "serve_burst",
        }
    }

    /// Open loop: requests are sent on a schedule whatever the service
    /// does, and the op that is timed is one request. Every other
    /// workload runs its ops back to back.
    pub fn open_loop(self) -> bool {
        self == Workload::ServePaced
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the same sentence `BENCHMARK.json`
    /// carries (pinned by the schema test).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchUniform32 => "20000 uniform 32x32 blocks, factor storage far beyond L2: the interleaved lane kernels and exec pack/alloc do all the work (paper Fig. 4/6); sparse, solver, serve do none",
            Workload::BatchRagged => "10000 blocks of orders 4..=48: one plan mixes packed, Gauss-Huard, small and blocked LU, so planner choices, size-class scheduling and the blocked kernels carry the op",
            Workload::SolveBj => "8 suite problems through block-Jacobi + IDR(4) end to end (paper Fig. 9 / Table I): SpMV, prepared apply and Krylov vector ops dominate on the iteration-heavy ones",
            Workload::SolveBilu => "5 suite problems through block-ILU(0) + IDR(4): 1-6 iterations each, so precond setup and triangular level sweeps dominate and the Krylov loop idles - the mirror of solve_bj",
            Workload::SolveSpike => "banded n=262144 split into 8192 partitions: the only path through SPIKE extraction, the reduced coupling batch and the refinement loop",
            Workload::ServePaced => "open loop, 20000 req/s of orders 4..=7 into one shard: latency is nearly all class-fill wait, so a flush-policy change moves it and a kernel change must not",
            Workload::ServeBurst => "closed loop, bursts of 2048 requests of orders 8..=32: classes fill at once, so pack + factorize + solve + reply per request, the service's work capacity, sets the time",
        }
    }
}

pub const SOLVE_BJ: [&str; 8] = [
    "af_shell3",
    "ML_Geer",
    "CurlCurl_0",
    "nd24k",
    "G3_circuit",
    "dw8192",
    "sme3Db",
    "crankseg_1",
];
pub const SOLVE_BILU: [&str; 5] = ["af_shell3", "CurlCurl_0", "dw8192", "crankseg_1", "F2"];

/// Backward-error tolerance of the direct solves (batch, spike, serve).
pub const TOL_DIRECT: f64 = 1e-10;
/// Backward-error tolerance of IDR(4) stopped at relres 1e-6.
pub const TOL_IDR: f64 = 1e-5;

/// Exact counts and byte/flop totals an op reports about itself, keyed
/// by the per-layer metric they feed.
pub type Facts = BTreeMap<&'static str, f64>;

pub struct OpResult {
    pub secs: f64,
    /// Linear systems the op solved (blocks, problems, requests).
    pub items: usize,
    pub failed: bool,
    pub berr: f64,
    pub facts: Facts,
}

// ------------------------------------------------------------ verification

/// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)` for a column-major dense `A`.
pub fn dense_backward_error(a: &[f64], n: usize, x: &[f64], b: &[f64]) -> f64 {
    let mut r = b.to_vec();
    let mut row_sums = vec![0.0f64; n];
    for j in 0..n {
        for i in 0..n {
            let aij = a[j * n + i];
            r[i] -= aij * x[j];
            row_sums[i] += aij.abs();
        }
    }
    backward_error(&r, inf_norm(&row_sums), x, b)
}

pub fn csr_backward_error(p: &SolveProblem, x: &[f64]) -> f64 {
    let (r, norm_a) = layers::csr_residual(&p.a, x, &p.b);
    backward_error(&r, norm_a, x, &p.b)
}

fn inf_norm(v: &[f64]) -> f64 {
    // a NaN must poison the norm, not vanish in a max()
    v.iter().fold(
        0.0,
        |m, &x| if x.is_nan() { f64::NAN } else { m.max(x.abs()) },
    )
}

fn backward_error(r: &[f64], norm_a: f64, x: &[f64], b: &[f64]) -> f64 {
    inf_norm(r) / (norm_a * inf_norm(x) + inf_norm(b))
}

fn within(berr: f64, tol: f64) -> bool {
    berr <= tol // false for NaN
}

/// The larger of a running worst error and a new one; a NaN sticks.
fn worse(worst: f64, e: f64) -> f64 {
    if e.is_nan() {
        e
    } else {
        worst.max(e)
    }
}

/// Worst backward error over the blocks of a batch, for solutions `x`
/// laid out like the right-hand sides.
pub fn batch_backward_error(b: &BatchInputs, x: &[f64]) -> f64 {
    let mut at = 0;
    (0..b.blocks.len()).fold(0.0, |worst, i| {
        let n = b.blocks.size(i);
        let seg = at..at + n;
        at += n;
        let e = dense_backward_error(b.blocks.block(i), n, &x[seg.clone()], &b.rhs[seg]);
        worse(worst, e)
    })
}

// ------------------------------------------------------------ compute workloads

pub enum Inputs {
    Batch(BatchInputs),
    Solve(Precond, Vec<SolveProblem>),
    Spike(layers::SpikeInputs),
}

pub fn generate(w: Workload, seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    match w {
        Workload::BatchUniform32 => Inputs::Batch(layers::gen_batch(&mut rng, &vec![32; 20_000])),
        Workload::BatchRagged => {
            let sizes: Vec<usize> = (0..10_000).map(|_| rng.gen_range(4usize..49)).collect();
            Inputs::Batch(layers::gen_batch(&mut rng, &sizes))
        }
        Workload::SolveBj => Inputs::Solve(Precond::BlockJacobi, suite(&SOLVE_BJ, seed)),
        Workload::SolveBilu => Inputs::Solve(Precond::BlockIlu0, suite(&SOLVE_BILU, seed)),
        Workload::SolveSpike => Inputs::Spike(layers::gen_spike(&mut rng, 262_144, 4, 8_192)),
        Workload::ServePaced | Workload::ServeBurst => {
            unreachable!("serve workloads generate their requests as they send them")
        }
    }
}

fn suite(names: &[&'static str], seed: u64) -> Vec<SolveProblem> {
    names
        .iter()
        .map(|n| layers::gen_suite_problem(n, seed))
        .collect()
}

fn fnv(h: &mut u64, bits: u64) {
    *h = (*h ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
}

/// FNV-1a over every input value's bit pattern: two runs saw the same
/// inputs iff their hashes agree.
pub fn input_hash(inputs: &Inputs) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut floats = |v: &[f64]| v.iter().for_each(|x| fnv(&mut h, x.to_bits()));
    match inputs {
        Inputs::Batch(b) => {
            floats(b.blocks.as_slice());
            floats(&b.rhs);
        }
        Inputs::Solve(_, problems) => {
            for p in problems {
                floats(p.a.values());
                floats(&p.b);
            }
        }
        Inputs::Spike(s) => {
            floats(s.a.values());
            floats(&s.b);
        }
    }
    h
}

/// Run timed op number `op` on `inputs`; spans go to `rec` if given.
/// Input copies, output checks and frees happen outside the clock.
pub fn run_op(inputs: &Inputs, op: usize, rec: Tracer) -> OpResult {
    match inputs {
        Inputs::Batch(b) => {
            let (blocks, x) = (b.blocks.clone(), b.rhs.clone());
            let root = rec.map(|r| r.op(op));
            let t0 = Instant::now();
            let out = layers::batch_op(blocks, x, rec);
            let secs = t0.elapsed().as_secs_f64();
            drop(root);
            drop(out.keep);
            let berr = batch_backward_error(b, &out.x);
            let facts = Facts::from([
                ("exec.blocks", out.blocks as f64),
                ("exec.classes", out.classes as f64),
                (
                    "exec.interleaved_share",
                    out.interleaved_blocks as f64 / out.blocks as f64,
                ),
                ("exec.fallback_blocks", out.fallback_blocks as f64),
                (
                    "exec.factorize_alloc_bytes",
                    out.factorize_alloc_bytes as f64,
                ),
                ("exec.apply_allocs", out.apply_allocs as f64),
                ("flops.factorize", out.factorize_flops),
                ("bytes.apply", apply_bytes(b.blocks.sizes())),
            ]);
            OpResult {
                secs,
                items: out.blocks,
                failed: out.fallback_blocks > 0 || !within(berr, TOL_DIRECT),
                berr,
                facts,
            }
        }
        Inputs::Solve(kind, problems) => {
            let root = rec.map(|r| r.op(op));
            let t0 = Instant::now();
            let outs: Vec<_> = problems
                .iter()
                .map(|p| layers::solve_op(*kind, p, rec))
                .collect();
            let secs = t0.elapsed().as_secs_f64();
            drop(root);
            let mut berr = 0.0f64;
            let mut failed = false;
            let mut facts = Facts::new();
            let mut sizes = Vec::new();
            for (p, out) in problems.iter().zip(&outs) {
                let e = csr_backward_error(p, &out.x);
                berr = worse(berr, e);
                if !out.converged || out.fallback_blocks > 0 || !within(e, TOL_IDR) {
                    eprintln!(
                        "perf_ledger: {} failed: converged = {}, {} fallback blocks, backward error {e:e}",
                        p.name, out.converged, out.fallback_blocks
                    );
                    failed = true;
                }
                *facts.entry("solver.iterations").or_default() += out.iterations as f64;
                *facts.entry("solver.iterate_allocs").or_default() += out.iterate_allocs as f64;
                *facts.entry("exec.blocks").or_default() += out.block_sizes.len() as f64;
                *facts.entry("exec.fallback_blocks").or_default() += out.fallback_blocks as f64;
                *facts.entry("flops.factorize").or_default() += out.factorize_flops;
                *facts.entry("blocks.interleaved").or_default() += out.interleaved_blocks as f64;
                // one apply per iteration, each streaming the factors once
                *facts.entry("bytes.apply").or_default() +=
                    out.iterations as f64 * apply_bytes(&out.block_sizes);
                *facts.entry("bytes.extract").or_default() += layers::csr_bytes(&p.a);
                sizes.extend_from_slice(&out.block_sizes);
            }
            sizes.sort_unstable();
            sizes.dedup();
            facts.insert("exec.classes", sizes.len() as f64);
            facts.insert(
                "exec.interleaved_share",
                facts["blocks.interleaved"] / facts["exec.blocks"],
            );
            OpResult {
                secs,
                items: problems.len(),
                failed,
                berr,
                facts,
            }
        }
        Inputs::Spike(s) => {
            let root = rec.map(|r| r.op(op));
            let t0 = Instant::now();
            let out = layers::spike_op(s, rec);
            let secs = t0.elapsed().as_secs_f64();
            drop(root);
            drop(out.keep);
            let (r, norm_a) = layers::csr_residual(&s.a, &out.x, &s.b);
            let berr = backward_error(&r, norm_a, &out.x, &s.b);
            let facts = Facts::from([
                ("solver.spike_refinements", out.refinements as f64),
                ("exec.blocks", out.partitions as f64),
                ("exec.fallback_blocks", out.fallback_blocks as f64),
                ("flops.factorize", out.factorize_flops),
            ]);
            OpResult {
                secs,
                items: 1,
                failed: !out.converged || out.fallback_blocks > 0 || !within(berr, TOL_DIRECT),
                berr,
                facts,
            }
        }
    }
}

/// Computed bytes one prepared apply moves over blocks of these
/// orders: every factor once, the vector segment in and out.
fn apply_bytes(sizes: &[usize]) -> f64 {
    sizes.iter().map(|&n| ((n * n + 2 * n) * 8) as f64).sum()
}

/// Per-problem iteration counts of one bare pass (for the computed
/// SpMV row of the traced run, and the determinism tests).
pub fn iterations_per_problem(kind: Precond, problems: &[SolveProblem]) -> Vec<usize> {
    problems
        .iter()
        .map(|p| layers::solve_op(kind, p, None).iterations)
        .collect()
}

// ------------------------------------------------------------ serve workloads

pub const PACED_RATE: u64 = 20_000;
/// Requests per window the `serve_paced` latencies are read in: 0.1 s
/// of the stream, so the p99 of a window has 20 requests beyond it.
pub const PACED_TAIL_WINDOW: usize = 2_000;
pub const BURST_REQUESTS: usize = 2_048;
/// Every this-many-th request has its solution checked.
const VERIFY_EVERY: usize = 16;

pub fn serve_shape(w: Workload) -> ServeShape {
    match w {
        Workload::ServePaced => ServeShape {
            orders: 4..=7,
            queue_capacity: 4_096,
            class_capacity: 16,
        },
        Workload::ServeBurst => ServeShape {
            orders: 8..=32,
            queue_capacity: BURST_REQUESTS,
            class_capacity: 32,
        },
        _ => unreachable!("{} is not a serve workload", w.name()),
    }
}

#[derive(Default)]
pub struct Fates {
    pub solved: u64,
    pub degraded: u64,
    pub shed: u64,
    pub expired: u64,
    pub refused: u64,
    /// Tickets that never resolved before the drain timeout.
    pub lost: u64,
}

impl Fates {
    fn count(&mut self, fate: &Fate) {
        match fate {
            Fate::Solved(_) => self.solved += 1,
            Fate::Degraded => self.degraded += 1,
            Fate::Shed => self.shed += 1,
            Fate::Expired => self.expired += 1,
            Fate::Refused => self.refused += 1,
        }
    }

    pub fn not_solved(&self) -> u64 {
        self.degraded + self.shed + self.expired + self.refused + self.lost
    }
}

/// Client-side observations only the traced run keeps.
#[derive(Default)]
pub struct ClientDetail {
    pub submit_us: Vec<f64>,
    pub gen_late_us: Vec<f64>,
    pub poll_period_us: Vec<f64>,
    pub queue_depth_max: usize,
}

pub struct PacedRun {
    /// Due time → first observation of the outcome, solved requests.
    pub latencies_ms: Vec<f64>,
    pub requests: u64,
    pub wrong: u64,
    pub fates: Fates,
    pub berr: f64,
    /// Requests whose outcome was seen before the send window closed,
    /// one gap after the last due time: what the service completed while
    /// the load was on, so a backlog lowers it.
    pub solved_in_window: u64,
    /// The send window, `count / PACED_RATE` seconds.
    pub window_s: f64,
    pub detail: Option<ClientDetail>,
}

struct Pending {
    idx: usize,
    ticket: Ticket,
}

/// Open loop: one client submits request `i` at `i / rate` seconds no
/// matter what the service is doing, and between due times sweeps its
/// outstanding tickets with `try_wait`. A request's latency runs from
/// its due time, so a late generator or a stalled service both count.
pub fn paced_stream(
    service: &Service,
    shape: &ServeShape,
    seed: u64,
    count: usize,
    trace: Option<&Arc<Recorder>>,
) -> PacedRun {
    let gap_ns = 1_000_000_000 / PACED_RATE;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    let mut pending: Vec<Pending> = Vec::with_capacity(1024);
    let mut still: Vec<Pending> = Vec::with_capacity(1024);
    let mut observed_ns = vec![u64::MAX; count];
    let mut kept: Vec<(usize, Vec<f64>)> = Vec::with_capacity(count / VERIFY_EVERY + 1);
    let mut fates = Fates::default();
    let mut detail = trace.is_some().then(ClientDetail::default);
    let mut submit_ns: Vec<(u64, u64)> = Vec::new();
    let mut last_sweep = 0u64;
    let mut sweeps = 0u64;

    let mut sweep = |pending: &mut Vec<Pending>, detail: &mut Option<ClientDetail>| {
        for p in pending.drain(..) {
            match layers::try_wait(p.ticket) {
                Ok(fate) => {
                    fates.count(&fate);
                    if let Fate::Solved(x) = fate {
                        observed_ns[p.idx] = now();
                        if p.idx % VERIFY_EVERY == 0 {
                            kept.push((p.idx, x));
                        }
                    }
                }
                Err(ticket) => still.push(Pending { idx: p.idx, ticket }),
            }
        }
        std::mem::swap(pending, &mut still);
        if let Some(d) = detail {
            let t = now();
            sweeps += 1;
            if sweeps % 64 == 0 {
                d.poll_period_us.push((t - last_sweep) as f64 / 1e3);
            }
            last_sweep = t;
        }
    };

    let mut next = Some(layers::gen_request(seed, 0, &shape.orders));
    for i in 0..count {
        let due = i as u64 * gap_ns;
        let req = next.take().expect("generated one ahead");
        if i + 1 < count {
            next = Some(layers::gen_request(seed, i as u64 + 1, &shape.orders));
        }
        loop {
            sweep(&mut pending, &mut detail);
            if now() >= due {
                break;
            }
            std::hint::spin_loop();
        }
        let s0 = now();
        let ticket = layers::submit(service, req);
        pending.push(Pending { idx: i, ticket });
        if let Some(d) = &mut detail {
            let s1 = now();
            submit_ns.push((s0, s1));
            d.submit_us.push((s1 - s0) as f64 / 1e3);
            d.gen_late_us.push((s0 - due) as f64 / 1e3);
            d.queue_depth_max = d.queue_depth_max.max(layers::queue_depth(service));
        }
    }
    // every deadline is 2 s out, so anything still pending after this is lost
    let give_up = now() + 10_000_000_000;
    while !pending.is_empty() && now() < give_up {
        sweep(&mut pending, &mut detail);
    }
    fates.lost = pending.len() as u64;
    let window_ns = count as u64 * gap_ns;
    let solved_in_window = observed_ns.iter().filter(|&&t| t <= window_ns).count() as u64;

    let mut berr = 0.0f64;
    let mut wrong = 0u64;
    for (idx, x) in &kept {
        let r = layers::gen_request(seed, *idx as u64, &shape.orders);
        let e = dense_backward_error(&r.matrix, r.n, x, &r.rhs);
        berr = worse(berr, e);
        wrong += u64::from(!within(e, TOL_DIRECT));
    }

    if let Some(rec) = trace {
        // spans of the checked requests only: 200 000 roots would be
        // a 50 MB file for no extra information
        for (idx, _) in &kept {
            let (due, (s0, s1)) = (*idx as u64 * gap_ns, submit_ns[*idx]);
            let op = *idx;
            let root = rec.record(OP, due, observed_ns[*idx], None, op);
            let flight = rec.record("serve.inflight", s0, observed_ns[*idx], Some(root), op);
            rec.record("serve.submit", s0, s1, Some(flight), op);
        }
    }

    let latencies_ms = observed_ns
        .iter()
        .enumerate()
        .filter(|(_, &t)| t != u64::MAX)
        .map(|(i, &t)| (t - i as u64 * gap_ns) as f64 / 1e6)
        .collect();
    PacedRun {
        latencies_ms,
        requests: count as u64,
        wrong,
        fates,
        berr,
        solved_in_window,
        window_s: window_ns as f64 / 1e9,
        detail,
    }
}

pub fn gen_burst(seed: u64, shape: &ServeShape) -> Vec<RawRequest> {
    (0..BURST_REQUESTS as u64)
        .map(|i| layers::gen_request(seed, i, &shape.orders))
        .collect()
}

pub struct BurstResult {
    pub secs: f64,
    pub fates: Fates,
    pub wrong: u64,
    pub berr: f64,
    pub submit_s: f64,
}

/// Closed loop: submit the whole pre-built burst, then wait for every
/// ticket in submission order.
pub fn burst_op(service: &Service, master: &[RawRequest], op: usize, rec: Tracer) -> BurstResult {
    let reqs = master.to_vec();
    let root = rec.map(|r| r.op(op));
    let t0 = Instant::now();
    let tickets: Vec<Ticket> = {
        let _s = rec.map(|r| r.enter("serve.submit"));
        reqs.into_iter()
            .map(|r| layers::submit(service, r))
            .collect()
    };
    let submit_s = t0.elapsed().as_secs_f64();
    let outcomes: Vec<Fate> = {
        let _s = rec.map(|r| r.enter("serve.inflight"));
        tickets.into_iter().map(layers::wait).collect()
    };
    let secs = t0.elapsed().as_secs_f64();
    drop(root);
    let mut fates = Fates::default();
    let (mut wrong, mut berr) = (0u64, 0.0f64);
    for (i, (fate, r)) in outcomes.iter().zip(master).enumerate() {
        fates.count(fate);
        if let (Fate::Solved(x), 0) = (fate, i % VERIFY_EVERY) {
            let e = dense_backward_error(&r.matrix, r.n, x, &r.rhs);
            berr = worse(berr, e);
            wrong += u64::from(!within(e, TOL_DIRECT));
        }
    }
    BurstResult {
        secs,
        fates,
        wrong,
        berr,
        submit_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_error_of_an_exact_and_a_wrong_solution() {
        // A = [[2, 1], [0, 4]] column-major, x = (1, 2), b = A x = (4, 8)
        let a = [2.0, 0.0, 1.0, 4.0];
        assert_eq!(dense_backward_error(&a, 2, &[1.0, 2.0], &[4.0, 8.0]), 0.0);
        let off = dense_backward_error(&a, 2, &[1.0, 2.5], &[4.0, 8.0]);
        assert!((off - 2.0 / (4.0 * 2.5 + 8.0)).abs() < 1e-15);
        assert!(dense_backward_error(&a, 2, &[f64::NAN, 2.0], &[4.0, 8.0]).is_nan());
        assert!(!within(f64::NAN, TOL_DIRECT));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    fn small_solve_inputs(seed: u64) -> Inputs {
        Inputs::Solve(Precond::BlockJacobi, suite(&["dw1024", "Chebyshev2"], seed))
    }

    #[test]
    fn same_seed_same_inputs_same_iterations() {
        let (a, b, c) = (
            small_solve_inputs(7),
            small_solve_inputs(7),
            small_solve_inputs(8),
        );
        assert_eq!(input_hash(&a), input_hash(&b));
        assert_ne!(input_hash(&a), input_hash(&c));
        let (ra, rb) = (run_op(&a, 0, None), run_op(&b, 0, None));
        assert!(!ra.failed && !rb.failed);
        assert_eq!(ra.facts["solver.iterations"], rb.facts["solver.iterations"]);
        assert!(ra.facts["solver.iterations"] > 0.0);

        let mut rng = SmallRng::seed_from_u64(3);
        let batch = Inputs::Batch(layers::gen_batch(&mut rng, &[5, 9, 17, 33, 5, 9]));
        let mut rng = SmallRng::seed_from_u64(3);
        let again = Inputs::Batch(layers::gen_batch(&mut rng, &[5, 9, 17, 33, 5, 9]));
        assert_eq!(input_hash(&batch), input_hash(&again));
    }

    #[test]
    fn timed_wrappers_change_no_bit() {
        for kind in [Precond::BlockJacobi, Precond::BlockIlu0] {
            let p = layers::gen_suite_problem("dw1024", 11);
            let bare = layers::solve_op(kind, &p, None);
            let rec = Recorder::new();
            let timed = {
                let _root = rec.op(0);
                layers::solve_op(kind, &p, Some(&rec))
            };
            assert!(bare.converged);
            assert_eq!(bare.iterations, timed.iterations);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&bare.x), bits(&timed.x));
            // exec spans nest under precond spans under the solver span
            let spans = rec.spans();
            let apply = spans.iter().find(|s| s.name == "exec.apply").unwrap();
            let precond = &spans[apply.parent.unwrap()];
            assert_eq!(precond.name, "precond.apply");
            assert_eq!(spans[precond.parent.unwrap()].name, "solver.iterate");
            let applies = spans.iter().filter(|s| s.name == "precond.apply").count();
            assert_eq!(applies, timed.iterations);
            if kind == Precond::BlockIlu0 {
                assert!(spans.iter().any(|s| s.name == "exec.sweep"));
            }
        }
    }

    #[test]
    fn batch_op_verifies_and_reports_its_plan() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut sizes = vec![8usize; 40];
        sizes.extend([20, 30, 40]);
        let inputs = Inputs::Batch(layers::gen_batch(&mut rng, &sizes));
        let r = run_op(&inputs, 0, None);
        assert!(!r.failed, "backward error {}", r.berr);
        assert_eq!(r.items, 43);
        assert_eq!(r.facts["exec.blocks"], 43.0);
        assert_eq!(r.facts["exec.classes"], 4.0);
        assert!((r.facts["exec.interleaved_share"] - 40.0 / 43.0).abs() < 1e-12);
    }

    #[test]
    fn serve_clients_get_every_request_solved_and_checked() {
        let shape = serve_shape(Workload::ServePaced);
        let service = layers::start_service(&shape);
        let rec = Recorder::new();
        let run = paced_stream(&service, &shape, 9, 400, Some(&rec));
        assert_eq!(run.fates.solved, 400);
        assert_eq!(run.fates.not_solved() + run.wrong, 0);
        assert_eq!(run.latencies_ms.len(), 400);
        assert!(run.solved_in_window <= 400);
        assert_eq!(run.window_s, 400.0 / PACED_RATE as f64);
        let detail = run.detail.unwrap();
        assert_eq!(detail.submit_us.len(), 400);
        assert_eq!(rec.spans().len(), 3 * 400usize.div_ceil(VERIFY_EVERY));
        layers::shutdown(service);

        let shape = serve_shape(Workload::ServeBurst);
        let service = layers::start_service(&shape);
        let master = gen_burst(9, &shape);
        let b = burst_op(&service, &master, 0, None);
        assert_eq!(b.fates.solved, BURST_REQUESTS as u64);
        assert_eq!(b.wrong, 0);
        assert!(b.berr < TOL_DIRECT);
        layers::shutdown(service);
    }
}
