//! Run sets (`--record`) and their comparison (`--compare A.json B.json`).
//!
//! A run set is a file of recorded runs. Comparing two sets prints, per
//! workload and end-to-end metric, both medians with their spreads, the
//! ratio with its base, the bound, and a verdict that follows the
//! choosing-metrics rules: simulated metrics must be bit-equal seed by
//! seed; a host metric whose spread exceeds its bound is `unresolved`,
//! never `unchanged`, unless every run of B beats every run of A.

use crate::estimate::summarize;
use crate::json::Value;
use crate::metrics::{is_simulated, Better, EndToEnd, Reading, END_TO_END};
use crate::workload::{Size, WorkloadId};
use std::path::Path;

/// One run, as a run set keeps it.
pub struct RunRecord<'a> {
    pub machine: Value,
    pub workload: WorkloadId,
    pub size: Size,
    pub trace: bool,
    pub correct: bool,
    pub readings: &'a [Reading],
}

impl RunRecord<'_> {
    /// Appends this run to the set at `path`, creating the set if need be.
    pub fn append_to(self, path: &Path) -> Result<(), String> {
        let mut runs = match std::fs::read_to_string(path) {
            Ok(text) => Value::parse(&text)?
                .get("runs")
                .and_then(Value::as_arr)
                .ok_or("not a run set: no \"runs\" array")?
                .to_vec(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.to_string()),
        };
        let metrics = self.readings.iter().map(|r| {
            (
                r.name,
                Value::obj([
                    ("value", Value::Num(r.summary.median)),
                    ("unit", Value::str(r.unit)),
                    ("q1", Value::Num(r.summary.q1)),
                    ("q3", Value::Num(r.summary.q3)),
                ]),
            )
        });
        runs.push(Value::obj([
            ("workload", Value::str(self.workload.name())),
            ("seed", Value::from(self.size.seed)),
            ("seconds", Value::from(self.size.seconds)),
            ("trace", Value::from(u64::from(self.trace))),
            ("correct", Value::Bool(self.correct)),
            ("machine", self.machine),
            ("metrics", Value::obj(metrics)),
        ]));
        let set = Value::obj([("runs", Value::Arr(runs))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, format!("{set}\n")).map_err(|e| e.to_string())
    }
}

/// One metric of one workload on one side: a value per recorded run.
struct Side {
    /// `(seed, value)` per untraced run.
    values: Vec<(u64, f64)>,
    /// Largest within-run IQR share: the spread when runs are too few.
    within_run: f64,
}

impl Side {
    fn load(set: &Value, workload: &str, metric: &str) -> Option<Side> {
        let mut side = Side {
            values: Vec::new(),
            within_run: 0.0,
        };
        for run in set.get("runs")?.as_arr()? {
            let is = |key: &str, want: &str| run.get(key).and_then(Value::as_str) == Some(want);
            if !is("workload", workload) || run.get("trace")?.as_f64()? != 0.0 {
                continue;
            }
            let reading = run.get("metrics")?.get(metric)?;
            let value = reading.get("value")?.as_f64()?;
            let (q1, q3) = (reading.get("q1")?.as_f64()?, reading.get("q3")?.as_f64()?);
            side.values.push((run.get("seed")?.as_f64()? as u64, value));
            if value != 0.0 {
                side.within_run = side.within_run.max(((q3 - q1) / value).abs());
            }
        }
        (!side.values.is_empty()).then_some(side)
    }

    fn numbers(&self) -> Vec<f64> {
        self.values.iter().map(|(_, v)| *v).collect()
    }

    fn median(&self) -> f64 {
        summarize(&self.numbers()).median
    }

    /// Spread as a share of the median: across runs when there are at
    /// least four, else the widest within-run (across-segment) spread.
    fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            summarize(&self.numbers()).iqr_share()
        } else {
            self.within_run
        }
    }
}

/// What a comparison concludes about one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A simulated metric, bit-equal on every seed both sets ran.
    Equal,
    /// A simulated metric that differs on some common seed.
    Different,
    /// A simulated metric, but the sets share no seed.
    NoCommonSeed,
    /// A host metric whose median is no worse than the bound allows.
    WithinBound,
    /// Every run of B reads better than every run of A.
    Better,
    /// A host metric worse by more than its bound.
    Regressed,
    /// The spread of the runs exceeds the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    pub fn is_ok(self) -> bool {
        matches!(
            self,
            Verdict::Equal | Verdict::WithinBound | Verdict::Better
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Different => "DIFFERENT",
            Verdict::NoCommonSeed => "UNRESOLVED (no common seed)",
            Verdict::WithinBound => "within bound",
            Verdict::Better => "better (every B run beats every A run)",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
        }
    }
}

/// One line of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: EndToEnd,
    pub a_median: f64,
    pub a_spread: f64,
    pub b_median: f64,
    pub b_spread: f64,
    pub verdict: Verdict,
}

fn judge(metric: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    if is_simulated(metric.name) {
        let mut common = a.values.iter().flat_map(|(seed, x)| {
            b.values
                .iter()
                .filter(move |(s, _)| s == seed)
                .map(move |(_, y)| x.to_bits() == y.to_bits())
        });
        return match common.next() {
            None => Verdict::NoCommonSeed,
            Some(first) if first && common.all(|equal| equal) => Verdict::Equal,
            Some(_) => Verdict::Different,
        };
    }
    let beats = |y: f64, x: f64| match metric.better {
        Better::Higher => y > x,
        Better::Lower => y < x,
    };
    let (a_runs, b_runs) = (a.numbers(), b.numbers());
    if b_runs.iter().all(|y| a_runs.iter().all(|x| beats(*y, *x))) {
        return Verdict::Better;
    }
    if a.spread().max(b.spread()) > metric.bound {
        return Verdict::Unresolved;
    }
    let change = (b.median() - a.median()) / a.median();
    let worse = match metric.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// Compares two run sets: one row per workload and end-to-end metric that
/// both have untraced runs of.
pub fn compare_sets(a_set: &Value, b_set: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WorkloadId::ALL {
        for metric in END_TO_END {
            let sides = (
                Side::load(a_set, workload.name(), metric.name),
                Side::load(b_set, workload.name(), metric.name),
            );
            if let (Some(a), Some(b)) = sides {
                rows.push(Row {
                    workload: workload.name(),
                    metric,
                    a_median: a.median(),
                    a_spread: a.spread(),
                    b_median: b.median(),
                    b_spread: b.spread(),
                    verdict: judge(&metric, &a, &b),
                });
            }
        }
    }
    rows
}

/// Prints the comparison of the sets at the two paths; `true` when no row
/// regressed, differed or was left unresolved.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Value::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let rows = compare_sets(&load(a_path)?, &load(b_path)?);
    if rows.is_empty() {
        return Err("the two sets share no workload with untraced runs".into());
    }
    println!("# A = {}", a_path.display());
    println!("# B = {}", b_path.display());
    println!(
        "{:<12} {:<15} {:>14} {:>7} {:>14} {:>7} {:>8}  {:<24} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "base (A)", "bound"
    );
    for row in &rows {
        println!(
            "{:<12} {:<15} {:>14.6} {:>6.2}% {:>14.6} {:>6.2}% {:>8.4}  {:<24} {:>5.1}%  {}",
            row.workload,
            row.metric.name,
            row.a_median,
            100.0 * row.a_spread,
            row.b_median,
            100.0 * row.b_spread,
            row.b_median / row.a_median,
            format!("{:.6} {}", row.a_median, row.metric.unit),
            100.0 * row.metric.bound,
            row.verdict.label(),
        );
    }
    Ok(rows.iter().all(|row| row.verdict.is_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set with one untraced `cache_mixed` run per `(seed, qps, sim_s)`.
    fn set(runs: &[(u64, f64, f64)]) -> Value {
        let reading = |value: f64, spread: f64| {
            Value::obj([
                ("value", Value::Num(value)),
                ("q1", Value::Num(value * (1.0 - spread / 2.0))),
                ("q3", Value::Num(value * (1.0 + spread / 2.0))),
            ])
        };
        let runs = runs.iter().map(|(seed, qps, sim_s)| {
            Value::obj([
                ("workload", Value::str("cache_mixed")),
                ("seed", Value::from(*seed)),
                ("trace", Value::from(0u64)),
                (
                    "metrics",
                    Value::obj([
                        ("queries_per_s", reading(*qps, 0.02)),
                        ("sim_s", reading(*sim_s, 0.0)),
                    ]),
                ),
            ])
        });
        Value::obj([("runs", Value::Arr(runs.collect()))])
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<(&'static str, Verdict)> {
        compare_sets(a, b)
            .into_iter()
            .map(|row| (row.metric.name, row.verdict))
            .collect()
    }

    #[test]
    fn simulated_metrics_must_be_bit_equal_seed_by_seed() {
        let a = set(&[(1, 100.0, 7.5), (2, 100.0, 8.5)]);
        let same = set(&[(2, 101.0, 8.5), (1, 99.0, 7.5)]);
        let drifted = set(&[(1, 100.0, 7.5), (2, 100.0, 8.500000001)]);
        let other_seeds = set(&[(3, 100.0, 7.5)]);
        assert_eq!(
            verdicts(&a, &same),
            [
                ("queries_per_s", Verdict::WithinBound),
                ("sim_s", Verdict::Equal)
            ]
        );
        assert_eq!(verdicts(&a, &drifted)[1], ("sim_s", Verdict::Different));
        assert_eq!(
            verdicts(&a, &other_seeds)[1],
            ("sim_s", Verdict::NoCommonSeed)
        );
    }

    #[test]
    fn host_metrics_regress_resolve_or_stay_unresolved() {
        let runs = |values: [f64; 4]| {
            let runs: Vec<_> = (0u64..).zip(values).map(|(s, v)| (s, v, 1.0)).collect();
            set(&runs)
        };
        let a = runs([100.0, 101.0, 99.0, 100.0]);
        let first = |b: &Value| verdicts(&a, b)[0].1;
        assert_eq!(
            first(&runs([98.0, 99.0, 100.0, 101.0])),
            Verdict::WithinBound
        );
        assert_eq!(first(&runs([60.0, 61.0, 59.0, 60.0])), Verdict::Regressed);
        assert_eq!(first(&runs([120.0, 121.0, 119.0, 122.0])), Verdict::Better);
        // A spread wider than the bound is never reported as unchanged.
        assert_eq!(
            first(&runs([60.0, 140.0, 100.0, 101.0])),
            Verdict::Unresolved
        );
        assert!(!Verdict::Unresolved.is_ok() && !Verdict::NoCommonSeed.is_ok());
    }
}
