//! Printing results by name with units, and keeping them: every run becomes
//! one provenance-stamped record appended to `history.jsonl`.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::layers::Layers;
use crate::sizes::Sizes;
use crate::trace::NameTotals;
use crate::workloads::E2e;

/// Where and how a result was taken.
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// UTC, `YYYY-MM-DDThh:mm:ssZ`.
    pub date: String,
    /// `available_parallelism` of the host.
    pub host_cpus: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Input seed.
    pub seed: u64,
    /// `full` or `smoke`.
    pub mode: &'static str,
    /// Timed seconds per workload.
    pub seconds: f64,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
fn civil_from_days(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    (yoe + era * 400 + (month <= 2) as i64, month, day)
}

/// `secs` since the Unix epoch as `YYYY-MM-DDThh:mm:ssZ`.
pub fn iso_utc(secs: u64) -> String {
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let rest = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rest / 3600,
        rest % 3600 / 60,
        rest % 60
    )
}

impl Provenance {
    /// Gather provenance for a run from `root` (the checkout).
    pub fn gather(root: &Path, seed: u64, smoke: bool, seconds: f64) -> Provenance {
        let root_s = root.display().to_string();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Provenance {
            commit: first_line_of("git", &["-C", &root_s, "rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            date: iso_utc(now),
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            seed,
            mode: if smoke { "smoke" } else { "full" },
            seconds,
        }
    }

    /// As a JSON object; `runtime_threads` is what the kernels probe saw,
    /// when it ran.
    pub fn to_json(&self, sizes: &Sizes, runtime_threads: Option<f64>) -> Json {
        Json::obj([
            ("commit", Json::str(&self.commit)),
            ("date", Json::str(&self.date)),
            ("host_cpus", Json::num(self.host_cpus as f64)),
            (
                "runtime_threads",
                runtime_threads.map_or(Json::Null, Json::num),
            ),
            ("rustc", Json::str(&self.rustc)),
            ("seed", Json::num(self.seed as f64)),
            ("mode", Json::str(self.mode)),
            ("seconds", Json::num(self.seconds)),
            ("sizes", sizes.to_json()),
        ])
    }
}

/// One end-to-end run as a record: what `--compare` reads back.
pub fn e2e_record(r: &E2e, provenance: Json) -> Json {
    let metrics = Json::obj(r.metrics().into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let checks = Json::Arr(
        r.checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(&c.name)),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::str(&c.detail)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("kind", Json::str("end_to_end")),
        ("workload", Json::str(&r.workload)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::num(r.attempted as f64)),
        ("failed", Json::num(r.failed as f64)),
        ("metrics", metrics),
        ("latency_samples", Json::num(r.samples as f64)),
        ("throughput_op", Json::str(r.throughput_op)),
        ("notes", Json::Obj(r.notes.clone())),
        ("checks", checks),
        ("provenance", provenance),
    ])
}

/// The traced pass as a record.
pub fn layers_record(layers: &Layers, self_times: &[NameTotals], provenance: Json) -> Json {
    let metrics = Json::obj(layers.metrics.iter().map(|m| {
        (
            m.name.as_str(),
            Json::obj([
                ("value", m.value.map_or(Json::Null, Json::num)),
                ("unit", Json::str(&m.unit)),
            ]),
        )
    }));
    let failed = Json::Arr(
        layers
            .probe_failed
            .iter()
            .map(|(p, why)| Json::obj([("probe", Json::str(p)), ("why", Json::str(why))]))
            .collect(),
    );
    let selfs = Json::Arr(
        self_times
            .iter()
            .map(|t| {
                Json::obj([
                    ("workload", Json::str(&t.workload)),
                    ("name", Json::str(&t.name)),
                    ("count", Json::num(t.count as f64)),
                    ("total_ms", Json::num(t.total_us / 1e3)),
                    ("self_ms", Json::num(t.self_us / 1e3)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("kind", Json::str("per_layer")),
        ("metrics", metrics),
        ("probe_failed", failed),
        ("self_time", selfs),
        ("provenance", provenance),
    ])
}

/// Append one record as a line.
pub fn append_line(path: &Path, record: &Json) -> Result<(), String> {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(f, "{}", record.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Replace a file's contents.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Print one workload's end-to-end metrics, observations and checks.
pub fn print_e2e(r: &E2e) {
    println!("== {} (end to end)", r.workload);
    for (name, value, unit) in r.metrics() {
        println!("  {name:<18} {value:>14.4} {unit}");
    }
    println!(
        "  {:<18} {:>14} ({} of {} operations failed)",
        "failed_frac",
        format!("{:.6}", r.failed as f64 / r.attempted.max(1) as f64),
        r.failed,
        r.attempted
    );
    println!(
        "  latency: {} samples; throughput counts {}",
        r.samples, r.throughput_op
    );
    let notes: Vec<String> = r
        .notes
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}={}",
                v.as_str().map_or_else(|| v.render(), str::to_string)
            )
        })
        .collect();
    println!("  {}", notes.join(" "));
    for c in &r.checks {
        println!(
            "  [{}] {} — {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
}

/// Print every per-layer metric and which probes failed.
pub fn print_layers(layers: &Layers) {
    println!("== per layer (traced pass)");
    for m in &layers.metrics {
        match m.value {
            Some(v) => println!("  {:<32} {v:>14.4} {}", m.name, m.unit),
            None => println!("  {:<32} {:>14} {}", m.name, "null", m.unit),
        }
    }
    for (probe, note) in &layers.notes {
        println!("  note {probe}: {note}");
    }
    for (probe, why) in &layers.probe_failed {
        println!("  probe_failed {probe}: {why}");
    }
}

/// Print self time per span name, largest first.
pub fn print_self_times(times: &[NameTotals]) {
    println!("== self time by span (span minus children)");
    println!(
        "  {:<16} {:<32} {:>8} {:>12} {:>12}",
        "workload", "span", "count", "total ms", "self ms"
    );
    for t in times {
        println!(
            "  {:<16} {:<32} {:>8} {:>12.3} {:>12.3}",
            t.workload,
            t.name,
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_epoch_seconds_as_utc() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_utc(1_790_544_896), "2026-09-27T21:34:56Z");
    }
}
