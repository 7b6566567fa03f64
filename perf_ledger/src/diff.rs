//! `diff`: compare two result files row by row against the bounds
//! `BENCHMARK.json` fixes.
//!
//! A bounded (end-to-end) row is `worse` when b's median is worse than
//! a's by more than the metric's bound, `unresolved` when either
//! file's stored spread is wider than the bound — unless every value
//! of b is better than every value of a — and `ok` otherwise. Rows
//! without a bound (per-layer) are informational: exact counts print
//! `same` / `differs`, the rest their relative change. The files'
//! output checks are compared too: one `failed_share` row per workload,
//! `worse` when a check of b failed or b's share is above a's. A row or
//! a workload that only one file has fails the comparison.

use crate::json::{self, Value};
use crate::ledger::{checks_from_json, rows_from_json, Check, Row};
use crate::schema::{self, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub better: Better,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Share of a's median by which b's median is worse (negative when b
/// is better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: &Row, b: &Row, bound: Bound) -> Verdict {
    if a.spread().max(b.spread()) > bound.bound {
        let b_always_better = match bound.better {
            Better::Lower => max(&b.values) < min(&a.values),
            Better::Higher => min(&b.values) > max(&a.values),
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(a.median(), b.median(), bound.better) > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn bounds_from_json(bench: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: better must be lower or higher"))?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), Bound { better, bound }))
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` of the checkout the command runs in: the nearest
/// one at or above the current directory.
fn benchmark_json() -> Result<Value, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            return load(&candidate);
        }
        if !dir.pop() {
            return Err("no BENCHMARK.json at or above the current directory".to_string());
        }
    }
}

/// One side of a comparison.
pub struct ResultFile {
    pub rows: Vec<Row>,
    pub checks: Vec<Check>,
}

impl ResultFile {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(ResultFile {
            rows: rows_from_json(v)?,
            checks: checks_from_json(v)?,
        })
    }

    /// (any check failed, failed ops / attempted ops) of one workload
    /// over all its sweeps; `None` if the file never ran it.
    fn failed_share(&self, workload: &str) -> Option<(bool, f64)> {
        let of: Vec<&Check> = self
            .checks
            .iter()
            .filter(|c| c.workload == workload)
            .collect();
        let sum = |f: fn(&Check) -> u64| of.iter().map(|c| f(c)).sum::<u64>() as f64;
        (!of.is_empty()).then(|| {
            (
                of.iter().any(|c| !c.correct),
                sum(|c| c.failed) / sum(|c| c.attempted).max(1.0),
            )
        })
    }
}

/// The report, one line per row, and whether b fails against a: a
/// bounded row is `worse`, a row or a workload's check is on one side
/// only, an output check of b failed, or b's failed share is above a's
/// (expected exactly 0 on both; its bound is +0).
pub fn compare(
    a: &ResultFile,
    b: &ResultFile,
    bounds: &BTreeMap<String, Bound>,
) -> (Vec<String>, bool) {
    let key = |r: &Row| (r.metric.clone(), r.workload.clone());
    let index_a: BTreeMap<_, &Row> = a.rows.iter().map(|r| (key(r), r)).collect();
    let index_b: BTreeMap<_, &Row> = b.rows.iter().map(|r| (key(r), r)).collect();
    let mut lines = Vec::new();
    let mut failed = false;
    for ra in &a.rows {
        let Some(rb) = index_b.get(&key(ra)) else {
            lines.push(format!("{} {} missing in b", ra.metric, ra.workload));
            failed = true;
            continue;
        };
        let (ma, mb) = (ra.median(), rb.median());
        let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let verdict = match bounds.get(&ra.metric) {
            Some(bound) => {
                let v = judge(ra, rb, *bound);
                failed |= v == Verdict::Worse;
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            }
            None if ra.unit == "count" => {
                if ra
                    .values
                    .iter()
                    .chain(&rb.values)
                    .all(|v| *v == ra.values[0])
                {
                    "same"
                } else {
                    "differs"
                }
            }
            None => match schema::per_layer(&ra.metric).map(|m| m.better) {
                Some(Better::Lower) => "info (lower is better)",
                Some(Better::Higher) => "info (higher is better)",
                None => "info",
            },
        };
        lines.push(format!(
            "{} {} {ma} -> {mb} {} ({:+.2}%, spread {:.2}% / {:.2}%) {verdict}",
            ra.metric,
            ra.workload,
            ra.unit,
            change * 100.0,
            ra.spread() * 100.0,
            rb.spread() * 100.0,
        ));
    }
    for rb in b.rows.iter().filter(|r| !index_a.contains_key(&key(r))) {
        lines.push(format!("{} {} missing in a", rb.metric, rb.workload));
        failed = true;
    }

    let mut workloads: Vec<&str> = Vec::new();
    for c in a.checks.iter().chain(&b.checks) {
        if !workloads.contains(&c.workload.as_str()) {
            workloads.push(&c.workload);
        }
    }
    for w in workloads {
        match (a.failed_share(w), b.failed_share(w)) {
            (Some((_, sa)), Some((b_check_failed, sb))) => {
                let worse = b_check_failed || sb > sa;
                failed |= worse;
                lines.push(format!(
                    "failed_share {w} {sa} -> {sb} ratio{} {}",
                    if b_check_failed {
                        ", output check failed in b"
                    } else {
                        ""
                    },
                    if worse { "worse" } else { "ok" },
                ));
            }
            (None, _) => {
                lines.push(format!("failed_share {w} missing in a"));
                failed = true;
            }
            (_, None) => {
                lines.push(format!("failed_share {w} missing in b"));
                failed = true;
            }
        }
    }
    (lines, failed)
}

pub fn run(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let bounds = bounds_from_json(&benchmark_json()?)?;
    let a = ResultFile::from_json(&load(a)?)?;
    let b = ResultFile::from_json(&load(b)?)?;
    let (lines, failed) = compare(&a, &b, &bounds);
    for line in lines {
        println!("{line}");
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[f64]) -> Row {
        Row {
            metric: "time_to_solution_ms".into(),
            workload: "w".into(),
            unit: "ms".into(),
            values: values.to_vec(),
        }
    }

    const LOWER_10: Bound = Bound {
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = row(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(&a, &row(&[105.0, 106.0, 104.0, 105.0, 105.5]), LOWER_10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &row(&[120.0, 121.0, 119.0, 120.0, 120.5]), LOWER_10),
            Verdict::Worse
        );
        // a noisy side makes the row unresolved ...
        let noisy = row(&[90.0, 140.0, 100.0, 125.0, 80.0]);
        assert_eq!(judge(&a, &noisy, LOWER_10), Verdict::Unresolved);
        // ... unless every run of b beats every run of a
        let fast_noisy = row(&[50.0, 80.0, 60.0, 75.0, 40.0]);
        assert_eq!(judge(&a, &fast_noisy, LOWER_10), Verdict::Ok);
        // single runs carry no spread and compare by the bound alone
        assert_eq!(
            judge(&row(&[100.0]), &row(&[111.0]), LOWER_10),
            Verdict::Worse
        );
        // direction flips for higher-is-better
        let higher = Bound {
            better: Better::Higher,
            bound: 0.10,
        };
        assert_eq!(judge(&row(&[100.0]), &row(&[85.0]), higher), Verdict::Worse);
        assert_eq!(judge(&row(&[100.0]), &row(&[120.0]), higher), Verdict::Ok);
    }

    fn check(correct: bool, attempted: u64, failed: u64) -> Check {
        Check {
            workload: "w".into(),
            repeat: 0,
            correct,
            attempted,
            failed,
        }
    }

    fn file(rows: Vec<Row>, checks: Vec<Check>) -> ResultFile {
        ResultFile { rows, checks }
    }

    fn bounds() -> BTreeMap<String, Bound> {
        BTreeMap::from([("time_to_solution_ms".to_string(), LOWER_10)])
    }

    #[test]
    fn a_failed_output_check_fails_the_comparison() {
        let clean = || file(vec![row(&[100.0])], vec![check(true, 50, 0)]);
        let (lines, failed) = compare(&clean(), &clean(), &bounds());
        assert!(!failed, "{lines:?}");
        assert!(lines.iter().any(|l| l == "failed_share w 0 -> 0 ratio ok"));
        // same timings, but b's ops failed verification
        let b = file(vec![row(&[100.0])], vec![check(false, 50, 2)]);
        let (lines, failed) = compare(&clean(), &b, &bounds());
        assert!(failed);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("failed_share w 0 -> 0.04") && l.ends_with("worse")));
        // a failed warm-up leaves failed = 0 and correct = false
        let b = file(vec![row(&[100.0])], vec![check(false, 50, 0)]);
        assert!(compare(&clean(), &b, &bounds()).1);
        // b may fail less than a, never more
        let a = file(vec![row(&[100.0])], vec![check(false, 50, 2)]);
        assert!(!compare(&a, &clean(), &bounds()).1);
        // over several sweeps the share is of all their ops
        let b = file(
            vec![row(&[100.0])],
            vec![check(true, 50, 0), check(true, 50, 1)],
        );
        assert!(compare(&clean(), &b, &bounds()).1);
    }

    #[test]
    fn a_row_on_one_side_only_fails_the_comparison() {
        let other = Row {
            metric: "peak_rss_mb".into(),
            ..row(&[20.0])
        };
        let both = || file(vec![row(&[100.0]), other.clone()], vec![check(true, 50, 0)]);
        let one = || file(vec![row(&[100.0])], vec![check(true, 50, 0)]);
        assert!(!compare(&both(), &both(), &bounds()).1);
        let (lines, failed) = compare(&both(), &one(), &bounds());
        assert!(failed);
        assert!(lines.contains(&"peak_rss_mb w missing in b".to_string()));
        let (lines, failed) = compare(&one(), &both(), &bounds());
        assert!(failed);
        assert!(lines.contains(&"peak_rss_mb w missing in a".to_string()));
        // a workload whose check only one file has
        let unchecked = file(vec![row(&[100.0])], vec![]);
        let (lines, failed) = compare(&one(), &unchecked, &bounds());
        assert!(failed);
        assert!(lines.contains(&"failed_share w missing in b".to_string()));
        assert!(compare(&unchecked, &one(), &bounds()).1);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bench = json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                              {"name":"throughput_rps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let b = bounds_from_json(&bench).unwrap();
        assert_eq!(
            b["setup_s"],
            Bound {
                better: Better::Lower,
                bound: 0.25
            }
        );
        assert_eq!(b["throughput_rps"].better, Better::Higher);
        assert!(bounds_from_json(&json::parse("{}").unwrap()).is_err());
    }
}
