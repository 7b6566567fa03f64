//! The metric names, units and directions the ledger emits. The same
//! tables are written in `BENCHMARK.json`; a unit test keeps the two
//! from drifting apart.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Measured with tracing off, on every workload. The closed-loop
/// timings are taken from the run's quiet tenth, the fastest tenth of
/// its ops (`stats::quiet_tenth` and `runner::summarise` say why).
///
/// * `setup_s` — generate the inputs or start the service, then one
///   warm-up op; five or more set-ups per run, the quiet tenth of them
///   (the fastest of up to ten, the middle of the fastest two of more).
/// * `time_to_solution_ms` — one op: a batch factorize+solve, a pass
///   over the suite problems, a SPIKE setup+solve, a burst; the median
///   op of the quiet tenth (about the p05 of all timed ops).
/// * `op_tail_ms` — the slowest op of the quiet tenth (about the p10 of
///   all timed ops).
///   On `serve_paced` the op is one request, timed from its due time,
///   and the stream is read in windows of 0.1 s (2 000 requests):
///   `time_to_solution_ms` is the median latency and `op_tail_ms` the
///   p99 latency (20 requests beyond it) of a window, each the median
///   over the quiet tenth of the windows.
/// * `throughput_rps` — linear systems solved (blocks, suite problems,
///   SPIKE systems, requests) by the ops of the quiet tenth per second
///   of their time. On `serve_paced` the requests completed inside the
///   send window over the window, which sits just under the offered
///   20 000/s until the service falls behind.
/// * `peak_rss_mb` — `VmHWM` of the workload's own process.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("time_to_solution_ms", "ms"),
    lo("op_tail_ms", "ms"),
    hi("throughput_rps", "1/s"),
    lo("peak_rss_mb", "MB"),
];

/// Produced by the traced run. A layer a workload never enters reports
/// 0 for its rows on that workload — which is the bypass prediction.
pub const PER_LAYER: &[MetricDef] = &[
    // host probe: denominators only
    hi("host.stream_gbps", "GB/s"),
    hi("host.stream_array_mb", "MB"),
    hi("host.llc_mb", "MB"),
    lo("host.stream_capped", "count"),
    hi("host.fma_gflops", "GFLOP/s"),
    hi("host.nproc", "count"),
    hi("host.lane_width", "count"),
    // vbatch-rt
    lo("rt.par_overhead_us", "us"),
    // vbatch-sparse
    lo("sparse.blocking_ms", "ms"),
    lo("sparse.extract_ms", "ms"),
    hi("sparse.extract_gbps", "GB/s"),
    lo("sparse.spmv_ms", "ms"),
    hi("sparse.spmv_gbps", "GB/s"),
    hi("sparse.spmv_stream_frac", "ratio"),
    lo("sparse.spike_extract_ms", "ms"),
    // vbatch-core (raw lane kernels, batch_uniform32 data)
    lo("core.pack_ms", "ms"),
    lo("core.getrf_ms", "ms"),
    hi("core.getrf_gflops", "GFLOP/s"),
    hi("core.getrf_peak_frac", "ratio"),
    lo("core.trsv_ms", "ms"),
    hi("core.trsv_gbps", "GB/s"),
    hi("core.trsv_stream_frac", "ratio"),
    lo("core.flops", "count"),
    lo("core.bytes", "B"),
    // vbatch-exec
    lo("exec.plan_ms", "ms"),
    lo("exec.factorize_ms", "ms"),
    lo("exec.factorize_self_ms", "ms"),
    hi("exec.factorize_gflops", "GFLOP/s"),
    lo("exec.prepare_ms", "ms"),
    lo("exec.apply_ms", "ms"),
    hi("exec.apply_gbps", "GB/s"),
    lo("exec.sweep_ms", "ms"),
    lo("exec.blocks", "count"),
    lo("exec.classes", "count"),
    hi("exec.interleaved_share", "ratio"),
    lo("exec.fallback_blocks", "count"),
    lo("exec.factorize_alloc_bytes", "B"),
    lo("exec.apply_allocs", "count"),
    // vbatch-precond
    lo("precond.setup_ms", "ms"),
    lo("precond.setup_self_ms", "ms"),
    lo("precond.setup_share", "ratio"),
    lo("precond.apply_ms", "ms"),
    lo("precond.apply_self_ms", "ms"),
    lo("precond.applies", "count"),
    // vbatch-solver
    lo("solver.iterate_ms", "ms"),
    lo("solver.self_ms", "ms"),
    lo("solver.iterations", "count"),
    lo("solver.ms_per_iteration", "ms"),
    lo("solver.iterate_allocs", "count"),
    lo("solver.spike_setup_ms", "ms"),
    lo("solver.spike_solve_ms", "ms"),
    lo("solver.spike_refinements", "count"),
    // vbatch-serve
    lo("serve.submit_us", "us"),
    lo("serve.work_us_per_request", "us"),
    lo("serve.queueing_share", "ratio"),
    hi("serve.solved", "count"),
    lo("serve.shed", "count"),
    lo("serve.expired", "count"),
    lo("serve.degraded", "count"),
    lo("serve.queue_depth_max", "count"),
    lo("serve.gen_late_p99_us", "us"),
    lo("serve.poll_period_p99_us", "us"),
    lo("serve.burst_ms", "ms"),
    // the benchmark itself
    lo("bench.trace_overhead_frac", "ratio"),
    lo("bench.unattributed_frac", "ratio"),
    lo("bench.backward_err_max", "ratio"),
    hi("bench.timed_ops", "count"),
];

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;
    use std::path::PathBuf;

    /// `BENCHMARK.json` sits at the repository root, above the
    /// package's manifest.
    pub fn benchmark_json() -> Value {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(candidate).unwrap();
                return json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        }
    }

    fn defs(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(table: &[MetricDef]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
            .collect()
    }

    #[test]
    fn emitted_names_equal_benchmark_json() {
        let b = benchmark_json();
        assert_eq!(defs(&b, "end_to_end"), ours(END_TO_END));
        assert_eq!(defs(&b, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<(String, String)> = b
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let expect: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expect);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &all {
            assert!(n.len() <= 64 && ok(n, "_.-"), "bad name {n}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16 && ok(m.unit, "_/%.-"),
                "bad unit {}",
                m.unit
            );
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
