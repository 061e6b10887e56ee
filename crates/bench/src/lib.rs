//! # ssdrec-bench
//!
//! The benchmark harness: shared experiment plumbing for the binaries that
//! regenerate every table and figure of the paper (see `DESIGN.md` §3 for
//! the experiment index) and the Criterion micro-benchmarks.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use ssdrec_core::{build_model, ModelKind, Prepared, SsdRec, SsdRecConfig};
use ssdrec_data::SyntheticConfig;
use ssdrec_metrics::MetricReport;
use ssdrec_models::{train, BackboneKind, RecModel, TrainConfig, TrainReport};
use ssdrec_serve::json::Json;

/// Experiment-scale knobs shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Dataset scale multiplier (1.0 = the profiles in `DESIGN.md`).
    pub scale: f64,
    /// Max training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Embedding width.
    pub dim: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Per-user training-prefix cap.
    pub max_train_prefixes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Quick mode: small enough to finish a whole table on one CPU core.
    pub fn quick() -> Self {
        HarnessConfig {
            scale: 0.35,
            epochs: 20,
            batch_size: 64,
            dim: 16,
            patience: 6,
            max_train_prefixes: 2,
            seed: 7,
        }
    }

    /// Standard mode: the `DESIGN.md` profiles, longer training.
    pub fn standard() -> Self {
        HarnessConfig {
            scale: 1.0,
            epochs: 25,
            batch_size: 64,
            dim: 32,
            patience: 5,
            max_train_prefixes: 3,
            seed: 7,
        }
    }

    /// Fast smoke mode: two epochs at a tiny scale — small enough for CI
    /// to validate a whole table end-to-end in seconds.
    pub fn fast() -> Self {
        HarnessConfig {
            scale: 0.08,
            epochs: 2,
            batch_size: 32,
            dim: 8,
            patience: 10,
            max_train_prefixes: 2,
            seed: 7,
        }
    }

    /// Parse `--full` / `--fast` / `--quick` from CLI args (quick is the
    /// default).
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--full") {
            Self::standard()
        } else if args.iter().any(|a| a == "--fast") {
            Self::fast()
        } else {
            Self::quick()
        }
    }

    /// The training config this harness scale implies.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            patience: self.patience,
            seed: self.seed,
            ..TrainConfig::default()
        }
    }
}

/// Dataset names in the paper's Table III order.
pub const DATASETS: [&str; 5] = ["ml-100k", "ml-1m", "beauty", "sports", "yelp"];

/// Per-profile max sequence length (paper: 200 for ML-1M, 50 otherwise).
pub fn max_len_for(name: &str) -> usize {
    if name == "ml-1m" {
        200
    } else {
        50
    }
}

/// Generate, filter and split a named profile at the harness scale.
///
/// # Panics
/// On a name that is not one of [`DATASETS`].
pub fn prepare_profile(name: &str, h: &HarnessConfig) -> Prepared {
    let cfg = SyntheticConfig::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset profile {name}"))
        .scaled(h.scale)
        .with_seed(h.seed);
    Prepared::new(&cfg.generate(), max_len_for(name), h.max_train_prefixes)
}

/// Train one entry of the model table — a vanilla backbone (Table III "w/o"
/// columns), a denoising baseline (Table IV) — at the harness scale.
/// `backbone` matters to the kinds that wrap one.
pub fn run_model(
    kind: ModelKind,
    backbone: BackboneKind,
    prep: &Prepared,
    h: &HarnessConfig,
) -> (Box<dyn RecModel>, TrainReport) {
    let mut model = build_model(kind, &prep.context(h.dim, h.seed, backbone));
    let report = train(&mut *model, &prep.split, &h.train_config());
    (model, report)
}

/// Train SSDRec with the given backbone and stage toggles.
pub fn run_ssdrec(
    backbone: BackboneKind,
    stages: (bool, bool, bool),
    prep: &Prepared,
    h: &HarnessConfig,
    tau: f32,
) -> (SsdRec, TrainReport) {
    let cfg = SsdRecConfig {
        tau,
        stage1: stages.0,
        stage2: stages.1,
        stage3: stages.2,
        ..prep.context(h.dim, h.seed, backbone).ssdrec_config()
    };
    let mut model = SsdRec::new(&prep.graph, cfg);
    let report = train(&mut model, &prep.split, &h.train_config());
    (model, report)
}

/// Format one metric row in the paper's column order.
pub fn metric_row(name: &str, m: &MetricReport) -> String {
    format!(
        "{name:<18} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
        m.hr5, m.hr10, m.hr20, m.ndcg5, m.ndcg10, m.ndcg20, m.mrr20
    )
}

/// The header matching [`metric_row`].
pub fn metric_header() -> String {
    format!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "HR@5", "HR@10", "HR@20", "N@5", "N@10", "N@20", "MRR"
    )
}

/// CSV line for a metric report.
pub fn metric_csv(dataset: &str, name: &str, m: &MetricReport) -> String {
    format!(
        "{dataset},{name},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
        m.hr5, m.hr10, m.hr20, m.ndcg5, m.ndcg10, m.ndcg20, m.mrr20
    )
}

/// Append lines to `results/<file>` under the workspace root, creating the
/// directory if needed. Errors are printed, not fatal — results also go to
/// stdout.
pub fn write_results(file: &str, header: &str, lines: &[String]) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warn: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(file);
    let mut content = String::from(header);
    content.push('\n');
    for l in lines {
        content.push_str(l);
        content.push('\n');
    }
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warn: cannot write {}: {e}", path.display());
    } else {
        eprintln!("results written to {}", path.display());
    }
}

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Resolve dataset names from CLI args (`--datasets a,b,c`), defaulting to
/// all five profiles.
pub fn datasets_from_args(args: &[String]) -> Vec<String> {
    for (i, a) in args.iter().enumerate() {
        if a == "--datasets" {
            if let Some(list) = args.get(i + 1) {
                return list.split(',').map(str::to_string).collect();
            }
        }
    }
    DATASETS.iter().map(|s| s.to_string()).collect()
}

/// True in fast (CI smoke) mode: `--fast` on the command line or
/// `SSDREC_BENCH_FAST=1` in the environment.
pub fn fast_mode() -> bool {
    std::env::var("SSDREC_BENCH_FAST").is_ok_and(|v| v == "1")
        || std::env::args().skip(1).any(|a| a == "--fast")
}

/// The outermost ancestor of the working directory holding a `Cargo.lock` —
/// the workspace root (cargo runs bin targets with cwd = the package dir).
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    cwd.ancestors()
        .filter(|a| a.join("Cargo.lock").is_file())
        .last()
        .map(PathBuf::from)
        .unwrap_or(cwd)
}

/// Scratch and report directory of the bench binaries, the one the testkit
/// harness reports into: `ssdrec-bench/` under the cargo target directory,
/// created if missing.
pub fn bench_dir() -> PathBuf {
    let dir = ssdrec_testkit::bench::target_dir().join("ssdrec-bench");
    std::fs::create_dir_all(&dir).expect("create target/ssdrec-bench");
    dir
}

/// Check that `json` parses with the workspace JSON parser, then write it
/// to `target/ssdrec-bench/bench_<name>.json` and — in full mode only, so a
/// smoke run never overwrites a committed result — to `BENCH_<name>.json`
/// at the workspace root. Returns the path of the most authoritative copy
/// written and the parsed document, for the caller's own field checks.
///
/// # Panics
/// If the document does not parse or a file cannot be written.
pub fn write_report(name: &str, json: &str, fast: bool) -> (PathBuf, Json) {
    let parsed = ssdrec_serve::json::parse(json)
        .unwrap_or_else(|e| panic!("the {name} report must be valid JSON: {e}"));
    let write = |path: PathBuf| {
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    };
    let scratch = write(bench_dir().join(format!("bench_{name}.json")));
    if fast {
        return (scratch, parsed);
    }
    (
        write(repo_root().join(format!("BENCH_{name}.json"))),
        parsed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve() {
        for d in DATASETS {
            assert!(SyntheticConfig::by_name(d).is_some(), "{d}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown dataset profile imaginary")]
    fn unknown_profile_panics() {
        prepare_profile("imaginary", &HarnessConfig::fast());
    }

    #[test]
    fn fast_reports_stay_under_target() {
        let name = "write_report_selftest";
        let (path, parsed) = write_report(name, "{\"fast\": true, \"n\": 3}", true);
        assert_eq!(path, bench_dir().join(format!("bench_{name}.json")));
        assert_eq!(parsed.get("n").and_then(|v| v.as_usize()), Some(3));
        assert!(!repo_root().join(format!("BENCH_{name}.json")).exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn prepare_profile_quick() {
        let h = HarnessConfig::quick();
        let prep = prepare_profile("beauty", &h);
        assert!(!prep.split.test.is_empty());
        assert!(prep.graph.total_edges() > 0);
    }

    #[test]
    fn args_parsing() {
        let args = vec!["--datasets".into(), "beauty,yelp".into(), "--full".into()];
        assert_eq!(datasets_from_args(&args), vec!["beauty", "yelp"]);
        assert_eq!(HarnessConfig::from_args(&args).scale, 1.0);
        assert_eq!(HarnessConfig::from_args(&[]).scale, 0.35);
    }

    #[test]
    fn metric_formatting_is_aligned() {
        let m = MetricReport::default();
        assert_eq!(metric_row("x", &m).len(), metric_header().len());
    }
}
