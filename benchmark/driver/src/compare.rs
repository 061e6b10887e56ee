//! `--compare A B`: two sets of runs (files of `history.jsonl` records),
//! judged per (end-to-end metric, workload) against the bounds fixed in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the driver reads.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metric `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

fn higher(v: &Json) -> Result<bool, String> {
    match text(v, "better")?.as_str() {
        "higher" => Ok(true),
        "lower" => Ok(false),
        other => Err(format!("BENCHMARK.json: better is {other:?}")),
    }
}

impl BenchSpec {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(doc: &str) -> Result<BenchSpec, String> {
        let v = json::parse(doc).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            field(&v, key)?
                .as_arr()
                .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not an array"))
        };
        Ok(BenchSpec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: higher(m)?,
                        bound: field(m, "bound")?
                            .as_f64()
                            .ok_or("BENCHMARK.json: bound is not a number")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| {
                    higher(m)?;
                    Ok((text(m, "name")?, text(m, "unit")?))
                })
                .collect::<Result<_, String>>()?,
            run_seconds: field(&v, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: run_seconds is not a number")?,
        })
    }
}

/// A set of runs: values per (workload, metric).
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Read the end-to-end records of a `history.jsonl`-style file. Records of
/// other kinds, and runs that were not correct, are skipped; the count of
/// skipped incorrect runs is returned alongside.
pub fn read_set(text: &str) -> Result<(RunSet, usize), String> {
    let mut set = RunSet::new();
    let mut incorrect = 0;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("kind").and_then(Json::as_str) != Some("end_to_end") {
            continue;
        }
        if rec.get("correct") != Some(&Json::Bool(true)) {
            incorrect += 1;
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        for (name, m) in rec.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((set, incorrect))
}

/// How one (metric, workload) pair came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A set's own spread exceeds the bound: the sets cannot resolve it.
    Unresolved,
    /// B is better than A by more than the bound.
    Improved,
    /// Within the bound either way.
    Same,
    /// One of the sets has no runs for the pair.
    Missing,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median of set A.
    pub median_a: f64,
    /// Median of set B.
    pub median_b: f64,
    /// By what share of A's median B is worse (negative: better).
    pub worse_by: f64,
    /// Larger of the two sets' IQR ÷ median (0 for single-run sets).
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compare B against baseline A for every declared (metric, workload).
pub fn compare(spec: &BenchSpec, a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: m.name.clone(),
                    median_a: f64::NAN,
                    median_b: f64::NAN,
                    worse_by: f64::NAN,
                    spread: f64::NAN,
                    bound: m.bound,
                    verdict: Verdict::Missing,
                });
                continue;
            };
            let median_a = stats::median(va).expect("sets hold no empty entries");
            let median_b = stats::median(vb).expect("sets hold no empty entries");
            let delta = (median_b - median_a) / median_a.abs();
            let worse_by = if m.higher_is_better { -delta } else { delta };
            let spread = stats::spread(va)
                .unwrap_or(0.0)
                .max(stats::spread(vb).unwrap_or(0.0));
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Regression
            } else if worse_by < -m.bound {
                Verdict::Improved
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                median_a,
                median_b,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// Print the table; `true` when nothing regressed and nothing is missing.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<15} {:<16} {:>13} {:>13} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<15} {:<16} {:>13.4} {:>13.4} {:>8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                Verdict::Improved => "improved",
                Verdict::Same => "same",
                Verdict::Missing => "MISSING",
            }
        );
    }
    rows.iter()
        .all(|r| !matches!(r.verdict, Verdict::Regression | Verdict::Missing))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 12,
      "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
      "end_to_end": [
        {"name": "throughput", "unit": "op/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [{"name": "core.x_ms", "unit": "ms", "better": "lower"}]
    }"#;

    fn set(rows: &[(&str, &str, &[f64])]) -> RunSet {
        rows.iter()
            .map(|(w, m, v)| ((w.to_string(), m.to_string()), v.to_vec()))
            .collect()
    }

    #[test]
    fn reads_the_benchmark_spec() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        assert_eq!(spec.workloads, vec!["w1", "w2"]);
        assert_eq!(spec.end_to_end[0].bound, 0.1);
        assert!(spec.end_to_end[0].higher_is_better && !spec.end_to_end[1].higher_is_better);
        assert_eq!(spec.per_layer, vec![("core.x_ms".into(), "ms".into())]);
        assert_eq!(spec.run_seconds, 12.0);
        assert!(BenchSpec::parse("{}").is_err());
        assert!(BenchSpec::parse(&SPEC.replace("\"higher\"", "\"sideways\"")).is_err());
    }

    #[test]
    fn the_committed_spec_names_what_the_driver_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = BenchSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(spec.workloads, crate::workloads::WORKLOADS);
        let table: Vec<(String, String)> = crate::layers::PROBES
            .iter()
            .flat_map(|p| p.metrics.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(spec.per_layer, table);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn judges_each_pair_by_direction_bound_and_spread() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let a = set(&[
            ("w1", "throughput", &steady),
            ("w1", "setup_s", &[1.0, 1.0, 1.0]),
            ("w2", "throughput", &steady),
            ("w2", "setup_s", &[1.0, 2.0, 3.0, 1.5, 2.5]),
        ]);
        let b = set(&[
            ("w1", "throughput", &[85.0, 86.0, 85.5, 85.0, 85.2]), // 15 % lower: worse
            ("w1", "setup_s", &[0.5, 0.5, 0.5]),                   // halved: better
            ("w2", "throughput", &[95.0, 96.0, 95.5, 95.0, 95.2]), // 5 % lower: within
            ("w2", "setup_s", &[2.0, 2.0, 2.0, 2.0, 2.0]),
        ]);
        let rows = compare(&spec, &a, &b);
        let verdict = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .unwrap()
                .verdict
        };
        assert_eq!(verdict("w1", "throughput"), Verdict::Regression);
        assert_eq!(verdict("w1", "setup_s"), Verdict::Improved);
        assert_eq!(verdict("w2", "throughput"), Verdict::Same);
        assert_eq!(verdict("w2", "setup_s"), Verdict::Unresolved);
        assert!(!print_rows(&rows));
        let worse = rows
            .iter()
            .find(|r| r.workload == "w1" && r.metric == "throughput");
        assert!((worse.unwrap().worse_by - 0.148).abs() < 1e-9);

        let only_w1 = set(&[("w1", "throughput", &steady), ("w1", "setup_s", &[1.0])]);
        let rows = compare(&spec, &only_w1, &only_w1);
        assert_eq!(rows[0].verdict, Verdict::Same);
        assert_eq!(rows[2].verdict, Verdict::Missing);
    }

    #[test]
    fn reads_only_correct_end_to_end_records() {
        let text = concat!(
            r#"{"kind":"end_to_end","workload":"w1","correct":true,"metrics":{"throughput":{"value":10,"unit":"op/s"}}}"#,
            "\n\n",
            r#"{"kind":"per_layer","metrics":{"core.x_ms":{"value":1,"unit":"ms"}}}"#,
            "\n",
            r#"{"kind":"end_to_end","workload":"w1","correct":false,"metrics":{"throughput":{"value":99,"unit":"op/s"}}}"#,
            "\n",
            r#"{"kind":"end_to_end","workload":"w1","correct":true,"metrics":{"throughput":{"value":12,"unit":"op/s"}}}"#,
            "\n",
        );
        let (set, incorrect) = read_set(text).unwrap();
        assert_eq!(incorrect, 1);
        assert_eq!(
            set[&("w1".to_string(), "throughput".to_string())],
            vec![10.0, 12.0]
        );
        assert!(read_set("not json\n").is_err());
    }
}
