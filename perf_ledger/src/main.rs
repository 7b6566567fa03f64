//! `perf_ledger` — the repository's benchmark.
//!
//! Seven pinned workloads, measured end to end with tracing off and,
//! in a separate traced run, layer by layer. See the package's
//! `README.md` for the workloads, the metrics and how the bounds in
//! `BENCHMARK.json` were measured.
//!
//! ```text
//! perf_ledger run   [--seed N] [--seconds S] [--repeat K]   every workload, end to end
//! perf_ledger trace [--seed N] [--seconds S]                every workload, per layer
//! perf_ledger diff  <a.json> <b.json>                     against BENCHMARK.json's bounds
//! perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form measures one workload in this process and prints one
//! JSON object as its final line; `run` and `trace` spawn it once per
//! workload, so every workload's `peak_rss_mb` is its own.

mod alloc;
mod diff;
mod json;
mod layers;
mod ledger;
mod probe;
mod runner;
mod schema;
mod spans;
mod stats;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::SwitchAlloc = alloc::SwitchAlloc::new();

/// Where `run`, `trace` and the traced workloads leave their files,
/// relative to the directory the command runs in.
const OUT_DIR: &str = "target/perf_ledger";

const USAGE: &str = "usage:
  perf_ledger run   [--seed N] [--seconds S] [--repeat K]
  perf_ledger trace [--seed N] [--seconds S]
  perf_ledger diff  <a.json> <b.json>
  perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// `--flag value` pairs and bare positionals, in order.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let v = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), v.clone()));
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("bad value for --{flag}: {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }
}

/// Any integer is a seed: negative ones wrap into `u64`.
fn seed_arg(args: &Args) -> Result<u64, String> {
    let raw: String = args.get("seed", "1".to_string())?;
    raw.parse::<u64>()
        .or_else(|_| raw.parse::<i64>().map(|s| s as u64))
        .map_err(|_| format!("bad value for --seed: {raw:?}"))
}

fn seconds_arg(args: &Args) -> Result<f64, String> {
    let s: f64 = args.get("seconds", 10.0)?;
    if s.is_finite() && s > 0.0 && s <= 60.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 60], got {s}"))
    }
}

/// The driver-contract form: one workload, in this process.
fn single(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = args.get("workload", String::new())?;
    let w = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = seed_arg(args)?;
    let seconds = seconds_arg(args)?;
    eprintln!("perf_ledger: {}: {}", w.name(), w.why());
    let result = match args.get::<u8>("trace", 0)? {
        0 => runner::run_end_to_end(w, seed, seconds),
        1 => runner::run_traced(w, seed, seconds, &PathBuf::from(OUT_DIR)),
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    eprintln!(
        "perf_ledger: {} seed {seed}: {} timed samples, {} attempted, {} failed, correct = {}",
        w.name(),
        result.samples,
        result.attempted,
        result.failed,
        result.correct
    );
    let metrics = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Value::obj([
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let Some(first) = raw.first() else {
        return Err("no command".to_string());
    };
    match first.as_str() {
        "run" | "trace" => {
            let args = Args::parse(&raw[1..])?;
            args.only(&["seed", "seconds", "repeat"])?;
            if !args.positional.is_empty() {
                return Err(format!("unexpected argument {:?}", args.positional[0]));
            }
            let sweep = ledger::Sweep {
                traced: first == "trace",
                seed: seed_arg(&args)?,
                seconds: seconds_arg(&args)?,
                repeat: args.get("repeat", 1usize)?.max(1),
            };
            ledger::sweep(&sweep, &PathBuf::from(OUT_DIR))
        }
        "diff" => {
            let args = Args::parse(&raw[1..])?;
            args.only(&[])?;
            let [a, b] = args.positional.as_slice() else {
                return Err("diff takes exactly two result files".to_string());
            };
            diff::run(a.as_ref(), b.as_ref())
        }
        _ => single(&Args::parse(raw)?),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf_ledger: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
