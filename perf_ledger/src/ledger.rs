//! `run` and `trace`: every workload, one child process each, in turn
//! — so no workload shares its cores or its `VmHWM` with another —
//! printed as `name workload value unit` rows and stored as a result
//! file `diff` can compare.

use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

pub struct Sweep {
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Back-to-back full sweeps; every metric keeps all its values.
    pub repeat: usize,
}

/// One (metric, workload) row of a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub unit: String,
    pub values: Vec<f64>,
}

impl Row {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Quartile distance over the median across the stored repeats.
    pub fn spread(&self) -> f64 {
        quartile_spread(&self.values)
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("metric", Value::str(&self.metric)),
            ("workload", Value::str(&self.workload)),
            ("unit", Value::str(&self.unit)),
            ("values", Value::nums(&self.values)),
            ("median", Value::Num(self.median())),
            ("spread", Value::Num(self.spread())),
        ])
    }
}

pub fn rows_from_json(v: &Value) -> Result<Vec<Row>, String> {
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("result file has no rows")?;
    rows.iter()
        .map(|r| {
            let text = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("row without {k}"))
            };
            let values = r
                .get("values")
                .and_then(Value::as_arr)
                .ok_or("row without values")?
                .iter()
                .map(|x| x.as_f64().ok_or("non-numeric value"))
                .collect::<Result<Vec<f64>, _>>()?;
            if values.is_empty() {
                return Err("row with no values".to_string());
            }
            Ok(Row {
                metric: text("metric")?,
                workload: text("workload")?,
                unit: text("unit")?,
                values,
            })
        })
        .collect()
}

/// The output check of one workload in one sweep, as a result file
/// keeps it.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub workload: String,
    pub repeat: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("repeat", Value::Num(self.repeat as f64)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
        ])
    }
}

pub fn checks_from_json(v: &Value) -> Result<Vec<Check>, String> {
    let checks = v
        .get("checks")
        .and_then(Value::as_arr)
        .ok_or("result file has no checks")?;
    checks
        .iter()
        .map(|c| {
            let count = |k: &str| {
                c.get(k)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("check without {k}"))
            };
            Ok(Check {
                workload: c
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or("check without workload")?
                    .to_string(),
                repeat: count("repeat")? as usize,
                correct: c.get("correct") == Some(&Value::Bool(true)),
                attempted: count("attempted")? as u64,
                failed: count("failed")? as u64,
            })
        })
        .collect()
}

/// What one child printed on its last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(w: Workload, sweep: &Sweep) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &sweep.seed.to_string()])
        .args(["--seconds", &sweep.seconds.to_string()])
        .args(["--trace", if sweep.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("the {} child exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = json::parse(last).map_err(|e| format!("child's last line is not JSON: {e}"))?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("child result lacks {k}"))
    };
    let Some(Value::Obj(fields)) = v.get("metrics") else {
        return Err("child result lacks metrics".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(ChildResult {
        correct: v.get("correct") == Some(&Value::Bool(true)),
        attempted: count("attempted")? as u64,
        failed: count("failed")? as u64,
        metrics,
    })
}

pub fn sweep(sweep: &Sweep, out_dir: &Path) -> Result<ExitCode, String> {
    let mode = if sweep.traced { "trace" } else { "run" };
    let mut rows: BTreeMap<(usize, usize), Row> = BTreeMap::new();
    let mut checks = Vec::new();
    let mut all_correct = true;
    for rep in 0..sweep.repeat {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            let r = run_child(w, sweep)?;
            all_correct &= r.correct;
            for (mi, (name, value, unit)) in r.metrics.iter().enumerate() {
                println!("{name} {} {value} {unit}", w.name());
                rows.entry((wi, mi))
                    .or_insert_with(|| Row {
                        metric: name.clone(),
                        workload: w.name().to_string(),
                        unit: unit.clone(),
                        values: Vec::new(),
                    })
                    .values
                    .push(*value);
            }
            let failed_share = r.failed as f64 / r.attempted.max(1) as f64;
            println!(
                "failed_share {} {failed_share} ratio ({} of {} ops, repeat {rep}, {})",
                w.name(),
                r.failed,
                r.attempted,
                if r.correct {
                    "outputs verified"
                } else {
                    "CHECK FAILED"
                }
            );
            checks.push(Check {
                workload: w.name().to_string(),
                repeat: rep,
                correct: r.correct,
                attempted: r.attempted,
                failed: r.failed,
            });
        }
    }
    let file = Value::obj([
        ("kind", Value::str(mode)),
        ("seed", Value::Num(sweep.seed as f64)),
        ("seconds", Value::Num(sweep.seconds)),
        ("repeats", Value::Num(sweep.repeat as f64)),
        (
            "rows",
            Value::Arr(rows.values().map(Row::to_json).collect()),
        ),
        (
            "checks",
            Value::Arr(checks.iter().map(Check::to_json).collect()),
        ),
    ]);
    let path = out_dir.join(format!("{mode}_{}.json", sweep.seed));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, file.render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("perf_ledger: at least one workload failed its output check");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_checks_survive_the_file_format() {
        let row = Row {
            metric: "time_to_solution_ms".into(),
            workload: "solve_bj".into(),
            unit: "ms".into(),
            values: vec![270.5, 268.25, 301.0],
        };
        let check = Check {
            workload: "solve_bj".into(),
            repeat: 2,
            correct: false,
            attempted: 51,
            failed: 1,
        };
        let file = Value::obj([
            ("rows", Value::Arr(vec![row.to_json()])),
            ("checks", Value::Arr(vec![check.to_json()])),
        ]);
        let back = json::parse(&file.render()).unwrap();
        assert_eq!(rows_from_json(&back).unwrap(), vec![row.clone()]);
        assert_eq!(checks_from_json(&back).unwrap(), vec![check]);
        assert_eq!(row.median(), 270.5);
        assert!(rows_from_json(&Value::obj([])).is_err());
        assert!(checks_from_json(&Value::obj([])).is_err());
    }
}
