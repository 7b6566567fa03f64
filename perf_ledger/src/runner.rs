//! One workload, one process: the end-to-end measurement (tracing
//! off) and the traced per-layer measurement, each returning the
//! result object the command prints as its last line.

use crate::layers::{self, Precond};
use crate::probe;
use crate::schema::{self, END_TO_END, PER_LAYER};
use crate::spans::{self, OpBreakdown, Recorder, OP};
use crate::stats::{median, median_sorted, percentile_sorted, quiet_tenth, sorted};
use crate::workloads::{self, Inputs, OpResult, Workload, PACED_TAIL_WINDOW};
use crate::ALLOC;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `setup_s` is taken from at least this many set-ups (the fastest of
/// five is disturbed far less often than the middle of three) ...
const MIN_SETUPS: usize = 5;
/// ... and from as many more as fit in one second, up to this many: a
/// 35 ms set-up (`serve_burst`) needs more repeats than a 0.5 s one
/// before it stops moving.
const MAX_SETUPS: usize = 15;
/// Requests of the paced warm-up stream (0.1 s at the pinned rate).
const PACED_WARMUP: usize = 2_048;
/// Fewest timed ops behind the end-to-end timings, even when that takes
/// a little longer than `--seconds` (it does on `batch_uniform32`,
/// whose untimed 164 MB input copy costs as much as the op).
const MIN_OPS: usize = 30;
/// Share of the traced `serve_paced` run spent on the bare stream, the
/// baseline of its `bench.trace_overhead_frac`. (The other workloads
/// alternate bare and traced ops instead.)
const BARE_SHARE: f64 = 0.35;

fn more_setups(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < 1.0)
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed samples behind every timing metric of this run.
    pub samples: u64,
    /// (name, value, unit), in schema order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What every workload's timed part boils down to.
struct Timed {
    /// Seconds per timed op, in op order.
    op_secs: Vec<f64>,
    /// Closed loop: linear systems each of those ops solved. Open loop:
    /// one number, the requests whose outcome was seen inside the send
    /// window.
    op_items: Vec<f64>,
    /// Open loop only: seconds of the send window.
    window_s: f64,
    attempted: u64,
    failed: u64,
}

/// (`time_to_solution_ms`, `op_tail_ms`, `throughput_rps`) of a run.
///
/// Closed loop, all three from the run's quiet tenth (`quiet_tenth`
/// says why): its median op, its slowest op, and the systems its ops
/// solved per second of their time. No higher percentile of a
/// closed-loop workload repeats on this host (over ten like runs of
/// `batch_ragged` the p25 and the p75 had quartile spreads of 0.24 and
/// 0.25, the p05 0.09), so what
/// `op_tail_ms` bounds there is the slow end of the quiet tenth; the
/// p50 and p75 of all ops go to stderr.
///
/// Open loop, the op is one request, timed from its due time, and the
/// stream is read in windows of 0.1 s (2 000 requests): each window
/// gives a median latency and a p99 (20 requests beyond it), and the
/// two rows are the medians over the quiet tenth of the windows' medians
/// and of their p99s. The host stalls a process for ~90 ms now and
/// then; one stall delays 0.9 % of a 10 s stream, so the p99 of the
/// whole stream reads 4 ms or 26 ms depending on whether a second one
/// came, and a slow minute moved the median of the whole stream by
/// 17 %. The quiet windows are what the service gives while nothing
/// else delays it or the client; a tail that shows in fewer than nine
/// windows in ten is not in them. Throughput is the requests completed
/// inside the send window per second of window.
fn summarise(w: Workload, t: &Timed) -> (f64, f64, f64) {
    if w.open_loop() {
        // whole windows only, unless the stream is shorter than one
        let whole = t.op_secs.len() / PACED_TAIL_WINDOW * PACED_TAIL_WINDOW;
        let timed = &t.op_secs[..if whole == 0 { t.op_secs.len() } else { whole }];
        let (p50s, p99s): (Vec<f64>, Vec<f64>) = timed
            .chunks(PACED_TAIL_WINDOW)
            .map(|c| {
                let c = sorted(c.to_vec());
                (median_sorted(&c), percentile_sorted(&c, 0.99))
            })
            .unzip();
        return (
            median_sorted(&quiet_tenth(&p50s)) * 1e3,
            median_sorted(&quiet_tenth(&p99s)) * 1e3,
            t.op_items[0] / t.window_s,
        );
    }
    let quiet = quiet_tenth(&t.op_secs);
    let slowest = quiet[quiet.len() - 1];
    // the ops of the quiet tenth (ties at its edge included)
    let (items, secs) = t
        .op_secs
        .iter()
        .zip(&t.op_items)
        .filter(|(s, _)| **s <= slowest)
        .fold((0.0, 0.0), |(i, s), (secs, items)| (i + items, s + secs));
    (median_sorted(&quiet) * 1e3, slowest * 1e3, items / secs)
}

fn end_to_end_metrics(
    w: Workload,
    setup_s: &[f64],
    t: &Timed,
) -> Vec<(&'static str, f64, &'static str)> {
    let (time_to_solution_ms, op_tail_ms, throughput_rps) = summarise(w, t);
    let value = |name: &str| match name {
        // the fastest of 5..=10 set-ups, the middle of the fastest two
        // of more: set-ups are disturbed the way ops are
        "setup_s" => median_sorted(&quiet_tenth(setup_s)),
        "time_to_solution_ms" => time_to_solution_ms,
        "op_tail_ms" => op_tail_ms,
        "throughput_rps" => throughput_rps,
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("no rule for end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

// ------------------------------------------------------------ tracing off

/// Set up repeatedly (tearing the previous state down outside the
/// clock) and keep the last state: (state, seconds per set-up, whether
/// every warm-up op checked out).
fn set_up<S>(
    mut build: impl FnMut() -> (S, bool),
    mut tear_down: impl FnMut(S),
) -> (S, Vec<f64>, bool) {
    let (mut state, mut secs, mut ok) = (None, Vec::new(), true);
    while more_setups(&secs) {
        if let Some(old) = state.take() {
            tear_down(old);
        }
        let t0 = Instant::now();
        let (s, warm_ok) = build();
        secs.push(t0.elapsed().as_secs_f64());
        ok &= warm_ok;
        state = Some(s);
    }
    (state.expect("MIN_SETUPS >= 1"), secs, ok)
}

/// Run `op(i)` for `seconds` of wall time and at least `min_ops` times.
fn repeat_for<T>(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let mut out = Vec::new();
    let t0 = Instant::now();
    while out.len() < min_ops || t0.elapsed().as_secs_f64() < seconds {
        out.push(op(out.len()));
    }
    out
}

pub fn run_end_to_end(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let (timed, setup_s, warm_ok) = match w {
        Workload::ServePaced => {
            let shape = workloads::serve_shape(w);
            let (service, setup_s, warm_ok) = set_up(
                || {
                    let s = layers::start_service(&shape);
                    let warm = workloads::paced_stream(&s, &shape, !seed, PACED_WARMUP, None);
                    (s, warm.fates.not_solved() + warm.wrong == 0)
                },
                layers::shutdown,
            );
            let count = (seconds * workloads::PACED_RATE as f64) as usize;
            let run = workloads::paced_stream(&service, &shape, seed, count.max(1), None);
            layers::shutdown(service);
            (paced_timed(&run), setup_s, warm_ok)
        }
        Workload::ServeBurst => {
            let shape = workloads::serve_shape(w);
            let ((service, master), setup_s, warm_ok) = set_up(
                || {
                    let master = workloads::gen_burst(seed, &shape);
                    let s = layers::start_service(&shape);
                    let warm = workloads::burst_op(&s, &master, 0, None);
                    ((s, master), warm.fates.not_solved() + warm.wrong == 0)
                },
                |(s, _)| layers::shutdown(s),
            );
            let bursts = repeat_for(seconds, 1, |i| {
                workloads::burst_op(&service, &master, i, None)
            });
            layers::shutdown(service);
            (burst_timed(&bursts), setup_s, warm_ok)
        }
        _ => {
            let (inputs, setup_s, warm_ok) = set_up(
                || {
                    let inp = workloads::generate(w, seed);
                    let warm_ok = !workloads::run_op(&inp, 0, None).failed;
                    (inp, warm_ok)
                },
                drop,
            );
            eprintln!(
                "perf_ledger: input hash {:016x}",
                workloads::input_hash(&inputs)
            );
            let ops = repeat_for(seconds, MIN_OPS, |i| workloads::run_op(&inputs, i, None));
            (compute_timed(&ops), setup_s, warm_ok)
        }
    };
    let all = sorted(timed.op_secs.clone());
    eprintln!(
        "perf_ledger: all {} ops: p50 {:.3} ms, p75 {:.3} ms (not bounded: host interference included)",
        all.len(),
        median_sorted(&all) * 1e3,
        percentile_sorted(&all, 0.75) * 1e3
    );
    RunResult {
        correct: warm_ok && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        samples: timed.op_secs.len() as u64,
        metrics: end_to_end_metrics(w, &setup_s, &timed),
    }
}

fn compute_timed(ops: &[OpResult]) -> Timed {
    Timed {
        op_secs: ops.iter().map(|o| o.secs).collect(),
        op_items: ops
            .iter()
            .map(|o| if o.failed { 0.0 } else { o.items as f64 })
            .collect(),
        window_s: 0.0,
        attempted: ops.len() as u64,
        failed: ops.iter().filter(|o| o.failed).count() as u64,
    }
}

fn paced_timed(run: &workloads::PacedRun) -> Timed {
    Timed {
        op_secs: run.latencies_ms.iter().map(|ms| ms * 1e-3).collect(),
        op_items: vec![run.solved_in_window as f64],
        window_s: run.window_s,
        attempted: run.requests,
        failed: run.fates.not_solved() + run.wrong,
    }
}

fn burst_timed(bursts: &[workloads::BurstResult]) -> Timed {
    let bad = |b: &workloads::BurstResult| b.fates.not_solved() + b.wrong > 0;
    Timed {
        op_secs: bursts.iter().map(|b| b.secs).collect(),
        op_items: bursts.iter().map(|b| b.fates.solved as f64).collect(),
        window_s: 0.0,
        attempted: bursts.len() as u64,
        failed: bursts.iter().filter(|b| bad(b)).count() as u64,
    }
}

// ------------------------------------------------------------ traced

/// Per-layer values under construction: every schema row starts at 0
/// and a workload fills in the rows of the layers it enters.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            schema::per_layer(name).is_some(),
            "{name} is not in the schema"
        );
        self.0.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.0[m.name], m.unit))
            .collect()
    }
}

/// Median over ops of a per-op quantity, in milliseconds.
fn med_ms(ops: &[&OpBreakdown], f: impl Fn(&OpBreakdown) -> f64) -> f64 {
    median(&ops.iter().map(|b| f(b) * 1e3).collect::<Vec<_>>())
}

pub fn run_traced(w: Workload, seed: u64, seconds: f64, trace_dir: &Path) -> RunResult {
    ALLOC.enable();
    let mut m = Layers::new();
    let host = probe::probe();
    m.set("host.stream_gbps", host.stream_gbps);
    m.set("host.stream_array_mb", host.stream_array_mb);
    m.set("host.llc_mb", host.llc_mb);
    m.set("host.stream_capped", f64::from(u8::from(host.capped)));
    m.set("host.fma_gflops", host.fma_gflops);
    m.set("host.nproc", host.nproc as f64);
    m.set("host.lane_width", host.lane_width as f64);
    m.set("rt.par_overhead_us", layers::par_overhead_us());

    let rec = Recorder::new();
    let (timed, mut correct) = match w {
        Workload::ServePaced => trace_paced(&mut m, &rec, seed, seconds),
        Workload::ServeBurst => trace_burst(&mut m, &rec, seed, seconds),
        _ => trace_compute(&mut m, &rec, w, seed, seconds),
    };
    correct &= timed.failed == 0;

    let all = rec.spans();
    let unattributed: Vec<f64> = spans::per_op(&all)
        .values()
        .map(|b| b.own(OP) / b.total(OP))
        .collect();
    m.set("bench.unattributed_frac", median(&unattributed));
    m.set("bench.timed_ops", timed.op_secs.len() as f64);

    let file = trace_dir.join(format!("{}.trace.json", w.name()));
    let written = std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&file, spans::to_json(w.name(), seed, &all).render()));
    if let Err(e) = written {
        eprintln!("perf_ledger: cannot write {}: {e}", file.display());
        correct = false;
    }
    RunResult {
        correct,
        attempted: timed.attempted,
        failed: timed.failed,
        samples: timed.op_secs.len() as u64,
        metrics: m.finish(),
    }
}

/// Rows that are the median over traced ops of the time spent under
/// spans of one name within an op.
const SPAN_ROWS: [(&str, &str); 12] = [
    ("exec.plan_ms", "exec.plan"),
    ("exec.factorize_ms", "exec.factorize"),
    ("exec.prepare_ms", "exec.prepare"),
    ("exec.apply_ms", "exec.apply"),
    ("exec.sweep_ms", "exec.sweep"),
    ("sparse.blocking_ms", "sparse.blocking"),
    ("sparse.extract_ms", "sparse.extract"),
    ("precond.setup_ms", "precond.setup"),
    ("precond.apply_ms", "precond.apply"),
    ("solver.iterate_ms", "solver.iterate"),
    ("solver.spike_setup_ms", "solver.spike_setup"),
    ("solver.spike_solve_ms", "solver.spike_solve"),
];

/// Bare and traced ops in turn for `seconds`, so that drift of the
/// host hits both sides of `bench.trace_overhead_frac` alike.
fn alternating<T>(seconds: f64, mut op: impl FnMut(usize, bool) -> T) -> (Vec<T>, Vec<T>) {
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        bare.push(op(bare.len(), false));
        traced.push(op(traced.len(), true));
    }
    (bare, traced)
}

fn trace_compute(
    m: &mut Layers,
    rec: &Arc<Recorder>,
    w: Workload,
    seed: u64,
    seconds: f64,
) -> (Timed, bool) {
    let inputs = workloads::generate(w, seed);
    let mut correct = !workloads::run_op(&inputs, 0, None).failed;
    let (bare, traced) = alternating(seconds, |i, traced| {
        workloads::run_op(&inputs, i, traced.then_some(rec))
    });
    let med = |ops: &[OpResult]| median(&ops.iter().map(|o| o.secs).collect::<Vec<_>>());
    m.set("bench.trace_overhead_frac", med(&traced) / med(&bare) - 1.0);
    let berr = bare
        .iter()
        .chain(&traced)
        .map(|o| o.berr)
        .fold(0.0, f64::max);
    m.set("bench.backward_err_max", berr);

    let by_op = spans::per_op(&rec.spans());
    let ops: Vec<&OpBreakdown> = by_op.values().collect();
    for (row, span) in SPAN_ROWS {
        m.set(row, med_ms(&ops, |b| b.total(span)));
    }
    m.set(
        "precond.setup_self_ms",
        med_ms(&ops, |b| b.own("precond.setup")),
    );
    m.set(
        "precond.apply_self_ms",
        med_ms(&ops, |b| b.own("precond.apply")),
    );
    m.set("solver.self_ms", med_ms(&ops, |b| b.own("solver.iterate")));
    let setup_share: Vec<f64> = ops
        .iter()
        .map(|b| b.total("precond.setup") / b.total(OP))
        .collect();
    m.set("precond.setup_share", median(&setup_share));
    let last_op = ops.last().expect("at least one traced op");
    m.set("precond.applies", last_op.count("precond.apply") as f64);

    // exact counts come from the ops themselves; they repeat op to op
    let facts = &traced.last().expect("at least one traced op").facts;
    for (k, v) in facts {
        if schema::per_layer(k).is_some() {
            m.set(k, *v);
        }
    }
    if m.get("solver.iterations") > 0.0 {
        m.set(
            "solver.ms_per_iteration",
            m.get("solver.iterate_ms") / m.get("solver.iterations"),
        );
    }
    // achieved rates: computed flops or bytes over the median span time
    for (row, fact, span_row) in [
        (
            "exec.factorize_gflops",
            "flops.factorize",
            "exec.factorize_ms",
        ),
        ("exec.apply_gbps", "bytes.apply", "exec.apply_ms"),
        ("sparse.extract_gbps", "bytes.extract", "sparse.extract_ms"),
    ] {
        let (total, ms) = (facts.get(fact).copied().unwrap_or(0.0), m.get(span_row));
        m.set(
            row,
            if ms > 0.0 {
                total / (ms * 1e-3) / 1e9
            } else {
                0.0
            },
        );
    }

    match &inputs {
        Inputs::Batch(b) if w == Workload::BatchUniform32 => {
            let runs: Vec<_> = (0..3).map(|_| layers::core_kernels(b)).collect();
            let med_of = |f: fn(&layers::CoreKernels) -> f64| {
                median(&runs.iter().map(f).collect::<Vec<_>>())
            };
            let (pack_s, getrf_s, trsv_s) = (
                med_of(|c| c.pack_s),
                med_of(|c| c.getrf_s),
                med_of(|c| c.trsv_s),
            );
            let c = &runs[0];
            m.set("core.pack_ms", pack_s * 1e3);
            m.set("core.getrf_ms", getrf_s * 1e3);
            m.set("core.trsv_ms", trsv_s * 1e3);
            m.set("core.getrf_gflops", c.getrf_flops / getrf_s / 1e9);
            m.set(
                "core.getrf_peak_frac",
                c.getrf_flops / getrf_s / 1e9 / m.get("host.fma_gflops"),
            );
            m.set("core.trsv_gbps", c.trsv_bytes / trsv_s / 1e9);
            m.set(
                "core.trsv_stream_frac",
                c.trsv_bytes / trsv_s / 1e9 / m.get("host.stream_gbps"),
            );
            m.set("core.flops", c.getrf_flops + c.trsv_flops);
            m.set("core.bytes", c.trsv_bytes);
            m.set(
                "exec.factorize_self_ms",
                m.get("exec.factorize_ms") - (pack_s + getrf_s) * 1e3,
            );
            // the raw kernels' answer is checked like the op's
            let worst = workloads::batch_backward_error(b, &c.x);
            correct &= c.failed_slots == 0 && worst <= workloads::TOL_DIRECT;
        }
        Inputs::Solve(kind, problems) => {
            spmv_rows(m, *kind, problems);
        }
        Inputs::Spike(s) => {
            let reps: Vec<f64> = (0..3).map(|_| layers::spike_extract_seconds(s)).collect();
            m.set("sparse.spike_extract_ms", median(&reps) * 1e3);
        }
        Inputs::Batch(_) => {}
    }
    let all: Vec<OpResult> = bare.into_iter().chain(traced).collect();
    (compute_timed(&all), correct)
}

/// `sparse.spmv_*`: the solver runs one SpMV per iteration plus one
/// for the final true residual, and calls `spmv` itself, so the time
/// is measured beside the run — the same matrices, the same number of
/// products — and labelled computed.
fn spmv_rows(m: &mut Layers, kind: Precond, problems: &[layers::SolveProblem]) {
    let its = workloads::iterations_per_problem(kind, problems);
    let (mut secs, mut bytes) = (0.0, 0.0);
    for (p, it) in problems.iter().zip(its) {
        secs += layers::spmv_seconds(p, it + 1);
        bytes += (it + 1) as f64 * layers::spmv_bytes(&p.a);
    }
    m.set("sparse.spmv_ms", secs * 1e3);
    m.set("sparse.spmv_gbps", bytes / secs / 1e9);
    m.set(
        "sparse.spmv_stream_frac",
        bytes / secs / 1e9 / m.get("host.stream_gbps"),
    );
}

fn serve_counts(m: &mut Layers, fates: &[&workloads::Fates]) {
    let sum = |f: fn(&workloads::Fates) -> u64| fates.iter().map(|x| f(x)).sum::<u64>() as f64;
    m.set("serve.solved", sum(|f| f.solved));
    m.set("serve.shed", sum(|f| f.shed));
    m.set("serve.expired", sum(|f| f.expired));
    m.set("serve.degraded", sum(|f| f.degraded));
}

/// Per-request cost of the same mix solved straight through the
/// backend, median of three passes.
fn direct_work_us(reqs: &[layers::RawRequest], class_capacity: usize) -> f64 {
    let reps: Vec<f64> = (0..3)
        .map(|_| layers::direct_work_seconds(reqs, class_capacity))
        .collect();
    median(&reps) / reqs.len() as f64 * 1e6
}

fn trace_paced(m: &mut Layers, rec: &Arc<Recorder>, seed: u64, seconds: f64) -> (Timed, bool) {
    let shape = workloads::serve_shape(Workload::ServePaced);
    let service = layers::start_service(&shape);
    let warm = workloads::paced_stream(&service, &shape, !seed, PACED_WARMUP, None);
    let rate = workloads::PACED_RATE as f64;
    let (bare_s, traced_s) = (seconds * BARE_SHARE, seconds * (1.0 - BARE_SHARE));
    let bare = workloads::paced_stream(&service, &shape, seed, (bare_s * rate) as usize + 1, None);
    let traced = workloads::paced_stream(
        &service,
        &shape,
        seed,
        (traced_s * rate) as usize + 1,
        Some(rec),
    );
    layers::shutdown(service);

    let p50 = |r: &workloads::PacedRun| median(&r.latencies_ms);
    m.set("bench.trace_overhead_frac", p50(&traced) / p50(&bare) - 1.0);
    m.set("bench.backward_err_max", bare.berr.max(traced.berr));
    let d = traced
        .detail
        .as_ref()
        .expect("the traced stream keeps client detail");
    m.set("serve.submit_us", median(&d.submit_us));
    m.set(
        "serve.gen_late_p99_us",
        percentile_sorted(&sorted(d.gen_late_us.clone()), 0.99),
    );
    m.set(
        "serve.poll_period_p99_us",
        percentile_sorted(&sorted(d.poll_period_us.clone()), 0.99),
    );
    m.set("serve.queue_depth_max", d.queue_depth_max as f64);
    serve_counts(m, &[&bare.fates, &traced.fates]);
    let reqs: Vec<_> = (0..4_096)
        .map(|i| layers::gen_request(seed, i, &shape.orders))
        .collect();
    let work_us = direct_work_us(&reqs, shape.class_capacity);
    m.set("serve.work_us_per_request", work_us);
    m.set("serve.queueing_share", 1.0 - work_us * 1e-3 / p50(&traced));

    let mut timed = paced_timed(&traced);
    let b = paced_timed(&bare);
    timed.attempted += b.attempted;
    timed.failed += b.failed;
    (timed, warm.fates.not_solved() + warm.wrong == 0)
}

fn trace_burst(m: &mut Layers, rec: &Arc<Recorder>, seed: u64, seconds: f64) -> (Timed, bool) {
    let shape = workloads::serve_shape(Workload::ServeBurst);
    let master = workloads::gen_burst(seed, &shape);
    let service = layers::start_service(&shape);
    let warm = workloads::burst_op(&service, &master, 0, None);
    let (bare, traced) = alternating(seconds, |i, traced| {
        workloads::burst_op(&service, &master, i, traced.then_some(rec))
    });
    layers::shutdown(service);

    let med = |v: &[workloads::BurstResult], f: fn(&workloads::BurstResult) -> f64| {
        median(&v.iter().map(f).collect::<Vec<_>>())
    };
    let burst_s = med(&traced, |b| b.secs);
    m.set(
        "bench.trace_overhead_frac",
        burst_s / med(&bare, |b| b.secs) - 1.0,
    );
    let all: Vec<workloads::BurstResult> = bare.into_iter().chain(traced).collect();
    m.set(
        "bench.backward_err_max",
        all.iter().map(|b| b.berr).fold(0.0, f64::max),
    );
    m.set("serve.burst_ms", burst_s * 1e3);
    m.set(
        "serve.submit_us",
        med(&all, |b| b.submit_s) / master.len() as f64 * 1e6,
    );
    serve_counts(m, &all.iter().map(|b| &b.fates).collect::<Vec<_>>());
    let work_us = direct_work_us(&master, shape.class_capacity);
    m.set("serve.work_us_per_request", work_us);
    m.set(
        "serve.queueing_share",
        1.0 - work_us * 1e-6 * master.len() as f64 / burst_s,
    );
    (burst_timed(&all), warm.fates.not_solved() + warm.wrong == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(op_secs: Vec<f64>, op_items: Vec<f64>, window_s: f64) -> Timed {
        Timed {
            op_secs,
            op_items,
            window_s,
            attempted: 0,
            failed: 0,
        }
    }

    #[test]
    fn closed_loop_rows_come_from_the_quiet_tenth() {
        // 30 ops of 1..=30 ms, 100 systems each: the quiet tenth is 1, 2, 3 ms
        let secs: Vec<f64> = (1..=30).rev().map(|i| f64::from(i) * 1e-3).collect();
        let t = timed(secs, vec![100.0; 30], 0.0);
        let (time, tail, rps) = summarise(Workload::SolveBj, &t);
        assert!((time - 2.0).abs() < 1e-12 && (tail - 3.0).abs() < 1e-12);
        assert!((rps - 300.0 / 6e-3).abs() < 1e-6);
        // interference through 27 of the 30 ops moves none of the three
        let mut noisy = t;
        noisy.op_secs[..27].iter_mut().for_each(|s| *s *= 3.0);
        let (time2, tail2, rps2) = summarise(Workload::SolveBj, &noisy);
        assert_eq!((time, tail, rps), (time2, tail2, rps2));
    }

    #[test]
    fn open_loop_rows_come_from_the_quiet_windows() {
        // ten whole windows of latencies 1..=2000 us (p99 = 1980 us) and
        // half a window that is dropped
        let window = || (1..=PACED_TAIL_WINDOW).map(|i| i as f64 * 1e-6);
        let mut secs: Vec<f64> = (0..10).flat_map(|_| window()).collect();
        secs.extend(std::iter::repeat_n(9.0, PACED_TAIL_WINDOW / 2));
        let t = timed(secs, vec![19_000.0], 0.5);
        let (time, tail, rps) = summarise(Workload::ServePaced, &t);
        assert!((time - 1.0005).abs() < 1e-9 && (tail - 1.98).abs() < 1e-9);
        assert_eq!(rps, 38_000.0);
        // a stall through nine of the ten windows moves neither row
        let mut stalled = t;
        stalled.op_secs[..9 * PACED_TAIL_WINDOW].fill(9.0);
        let (time, tail, _) = summarise(Workload::ServePaced, &stalled);
        assert!((time - 1.0005).abs() < 1e-9 && (tail - 1.98).abs() < 1e-9);
        // shorter than one window: the p99 of what there is
        let short = timed(vec![1e-3, 2e-3, 3e-3], vec![3.0], 1.0);
        assert!((summarise(Workload::ServePaced, &short).1 - 3.0).abs() < 1e-12);
    }
}
