//! # ssdrec-bench
//!
//! The one binary that regenerates the paper's evidence: every table, figure
//! and `ext-*` ablation is a row of `entries::ENTRIES`, behind one argument
//! parser (`parse`) and one `results/` writer (`write_results`).
//!
//! `cargo run --release -p ssdrec-bench -- <entry> [--fast | --full]
//! [--datasets a,b] [--models A,B] [--users N]`, `-- --list`, `-- all`.
//!
//! Performance is measured by `benchmark/run.sh`, not here. The one
//! measuring entry (`data-scale`) reaches corpus sizes the benchmark's
//! CLI-driven workloads cannot.

#![warn(missing_docs)]

mod entries;

use std::path::Path;

use ssdrec_core::{build_model, ModelKind, Prepared, SsdRec, SsdRecConfig};
use ssdrec_data::{inject_unobserved, Example, SyntheticConfig};
use ssdrec_denoise::Keep;
use ssdrec_metrics::{MetricReport, OupAccumulator};
use ssdrec_models::{train, BackboneKind, RecModel, TrainConfig, TrainReport};

use entries::ENTRIES;

/// Experiment scale: `--fast` (CI smoke), the default quick mode, `--full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scale {
    Fast,
    Quick,
    Full,
}

/// Experiment-scale knobs shared by all entries.
#[derive(Clone, Debug)]
pub(crate) struct HarnessConfig {
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
    /// Fast: two epochs at a tiny scale, a whole table in seconds. Quick:
    /// small enough to finish a whole table on one CPU core. Full: the
    /// `DESIGN.md` profiles, longer training.
    fn for_scale(scale: Scale) -> Self {
        let (scale, epochs, batch_size, dim, patience, max_train_prefixes) = match scale {
            Scale::Fast => (0.08, 2, 32, 8, 10, 2),
            Scale::Quick => (0.35, 20, 64, 16, 6, 2),
            Scale::Full => (1.0, 25, 64, 32, 5, 3),
        };
        HarnessConfig {
            scale,
            epochs,
            batch_size,
            dim,
            patience,
            max_train_prefixes,
            seed: 7,
        }
    }

    /// OUP measurements need the denoiser past its conservative warm-up
    /// phase: at least 12 epochs, with patience to match.
    pub fn past_warm_up(&self) -> Self {
        HarnessConfig {
            epochs: self.epochs.max(12),
            patience: self.patience.max(12),
            ..self.clone()
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
pub(crate) const DATASETS: [&str; 5] = ["ml-100k", "ml-1m", "beauty", "sports", "yelp"];

/// The parsed command line every entry receives.
#[derive(Clone, Debug)]
pub(crate) struct Args {
    /// `--fast` / default quick / `--full`.
    pub scale: Scale,
    /// The training knobs `scale` implies.
    pub h: HarnessConfig,
    datasets: Option<Vec<&'static str>>,
    /// `--models`, default all six backbones.
    pub models: Vec<BackboneKind>,
    /// `--users`, default 3 (Fig. 4's traced users).
    pub users: usize,
    /// `--sweep-insert` (Fig. 1's insertion-count sweep).
    pub sweep_insert: bool,
}

impl Args {
    /// The `--datasets` selection, or the entry's own default.
    pub fn datasets(&self, default: &[&'static str]) -> Vec<&'static str> {
        self.datasets.clone().unwrap_or_else(|| default.to_vec())
    }
}

/// One row of the experiment table.
pub(crate) struct Entry {
    /// What to type.
    pub name: &'static str,
    /// What it regenerates, and which selectors it honours.
    pub what: &'static str,
    /// The experiment.
    pub run: fn(&Args),
}

/// What a command line asks for.
pub(crate) enum Cmd {
    /// `--list`.
    List,
    /// Run these entries, in table order, with these arguments.
    Run(Vec<&'static Entry>, Args),
}

const FLAGS: &str = "--list, --fast, --full, --datasets, --models, --users, --sweep-insert";

/// `--list`'s text: one line per entry.
pub(crate) fn list() -> String {
    let mut out = String::from(
        "usage: ssdrec-bench <entry> | all | --list  [--fast | --full] \
         [--datasets a,b] [--models A,B] [--users N] [--sweep-insert]\n\nentries:\n",
    );
    for e in &ENTRIES {
        out.push_str(&format!("  {:<20} {}\n", e.name, e.what));
    }
    out
}

/// Resolve every comma-separated name through `find`, or name the valid ones.
fn names<T>(
    flag: &str,
    list: &str,
    valid: &[&str],
    find: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    list.split(',')
        .map(|n| {
            find(n)
                .ok_or_else(|| format!("{flag}: unknown name {n:?} (valid: {})", valid.join(", ")))
        })
        .collect()
}

/// The one parser. Every mistake is an `Err` with a one-line message:
/// unknown flags, `--fast` with `--full`, unknown dataset / model / entry
/// names, a missing or unparseable value.
pub(crate) fn parse(argv: &[String]) -> Result<Cmd, String> {
    let (mut entry, mut scale, mut datasets, mut models, mut users) =
        (None::<&str>, None::<Scale>, None, None, 3usize);
    let (mut sweep_insert, mut want_list) = (false, false);
    let mut it = argv.iter().map(String::as_str);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a {
            "--list" => want_list = true,
            "--fast" | "--full" => {
                let s = if a == "--fast" {
                    Scale::Fast
                } else {
                    Scale::Full
                };
                if scale.is_some_and(|prev| prev != s) {
                    return Err("--fast and --full conflict: pick one scale".into());
                }
                scale = Some(s);
            }
            "--datasets" => {
                datasets = Some(names(a, value()?, &DATASETS, |n| {
                    DATASETS.iter().copied().find(|d| *d == n)
                })?);
            }
            "--models" => {
                let valid = BackboneKind::all().map(|k| k.name());
                models = Some(names(a, value()?, &valid, BackboneKind::by_name)?);
            }
            "--users" => {
                let v = value()?;
                users = v
                    .parse()
                    .map_err(|_| format!("--users: cannot parse {v:?}"))?;
            }
            "--sweep-insert" => sweep_insert = true,
            _ if a.starts_with('-') => return Err(format!("unknown flag {a} (valid: {FLAGS})")),
            _ if entry.is_some() => {
                return Err(format!("unexpected argument {a:?}: one entry per run"))
            }
            _ => entry = Some(a),
        }
    }
    if want_list {
        return Ok(Cmd::List);
    }
    let selected: Vec<&Entry> = match entry {
        None => return Err(format!("no entry given\n{}", list().trim_end())),
        Some("all") => ENTRIES.iter().collect(),
        Some(name) => match ENTRIES.iter().find(|e| e.name == name) {
            Some(e) => vec![e],
            None => return Err(format!("unknown entry {name:?}\n{}", list().trim_end())),
        },
    };
    let scale = scale.unwrap_or(Scale::Quick);
    let args = Args {
        scale,
        h: HarnessConfig::for_scale(scale),
        datasets,
        models: models.unwrap_or_else(|| BackboneKind::all().to_vec()),
        users,
        sweep_insert,
    };
    Ok(Cmd::Run(selected, args))
}

/// Parse `argv` (without the program name) and run what it asks for.
/// Returns the process exit code: 0, or 2 after printing `error: …` for a
/// command line the parser rejects.
pub fn run(argv: &[String]) -> u8 {
    match parse(argv) {
        Ok(Cmd::List) => print!("{}", list()),
        Ok(Cmd::Run(selected, args)) => {
            for e in selected {
                (e.run)(&args);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    }
    0
}

/// Per-profile max sequence length (paper: 200 for ML-1M, 50 otherwise).
fn max_len_for(name: &str) -> usize {
    if name == "ml-1m" {
        200
    } else {
        50
    }
}

/// Generate, filter and split a named profile at the harness scale.
///
/// # Panics
/// On a name that is not one of [`DATASETS`] ([`parse`] lets none through).
pub(crate) fn prepare_profile(name: &str, h: &HarnessConfig) -> Prepared {
    let cfg = SyntheticConfig::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset profile {name}"))
        .scaled(h.scale)
        .with_seed(h.seed);
    Prepared::new(&cfg.generate(), max_len_for(name), h.max_train_prefixes)
}

/// The noise-labelled ML-100K setup of Fig. 1: generator noise off, so the
/// `per_seq` unobserved items inserted into each short sequence are the
/// only ground-truth noise (the paper's controlled setup).
pub(crate) fn noisy_ml100k(h: &HarnessConfig, per_seq: usize) -> Prepared {
    let raw = SyntheticConfig::ml100k()
        .scaled(h.scale)
        .with_noise_ratio(0.0)
        .with_seed(h.seed)
        .generate();
    let noisy = inject_unobserved(&raw, 60, per_seq, h.seed);
    Prepared::new(&noisy, 50, h.max_train_prefixes)
}

/// Over/under-denoising of the keep decisions `keeps` (one per example,
/// from [`keep_each`](ssdrec_denoise::keep_each)) against `examples`' noise
/// labels.
pub(crate) fn oup(examples: &[Example], keeps: &[Keep]) -> OupAccumulator {
    let mut acc = OupAccumulator::new();
    for (ex, keep) in examples.iter().zip(keeps) {
        if let (Some(noise), false) = (&ex.noise, ex.seq.is_empty()) {
            acc.push(noise, &keep.kept);
        }
    }
    acc
}

/// Train one entry of the model table — a vanilla backbone (Table III "w/o"
/// columns), a denoising baseline (Table IV) — at the harness scale.
/// `backbone` matters to the kinds that wrap one.
pub(crate) fn run_model(
    kind: ModelKind,
    backbone: BackboneKind,
    prep: &Prepared,
    h: &HarnessConfig,
) -> (Box<dyn RecModel>, TrainReport) {
    let mut model = build_model(kind, &prep.context(h.dim, h.seed, backbone));
    let report = train(&mut *model, &prep.split, &h.train_config());
    (model, report)
}

/// Train SSDRec on `backbone` after `tweak` has adjusted its config.
pub(crate) fn run_ssdrec_with(
    backbone: BackboneKind,
    prep: &Prepared,
    h: &HarnessConfig,
    tweak: impl FnOnce(&mut SsdRecConfig),
) -> (SsdRec, TrainReport) {
    let mut cfg = prep.context(h.dim, h.seed, backbone).ssdrec_config();
    tweak(&mut cfg);
    let mut model = SsdRec::new(&prep.graph, cfg);
    let report = train(&mut model, &prep.split, &h.train_config());
    (model, report)
}

/// Train full SSDRec (all three stages, τ = 1) on the given backbone.
pub(crate) fn run_ssdrec(
    backbone: BackboneKind,
    prep: &Prepared,
    h: &HarnessConfig,
) -> (SsdRec, TrainReport) {
    run_ssdrec_with(backbone, prep, h, |_| ())
}

/// Format one metric row in the paper's column order.
pub(crate) fn metric_row(name: &str, m: &MetricReport) -> String {
    format!(
        "{name:<18} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
        m.hr5, m.hr10, m.hr20, m.ndcg5, m.ndcg10, m.ndcg20, m.mrr20
    )
}

/// The header matching [`metric_row`].
pub(crate) fn metric_header() -> String {
    format!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "HR@5", "HR@10", "HR@20", "N@5", "N@10", "N@20", "MRR"
    )
}

/// CSV line for a metric report.
pub(crate) fn metric_csv(dataset: &str, name: &str, m: &MetricReport) -> String {
    format!(
        "{dataset},{name},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
        m.hr5, m.hr10, m.hr20, m.ndcg5, m.ndcg10, m.ndcg20, m.mrr20
    )
}

/// The checkout this binary was built from (two levels above this crate's
/// manifest, `crates/bench`), whatever the working directory.
pub(crate) fn repo_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("crates/bench sits in a checkout")
}

/// Write `header` then `lines` to `results/<file>` under the workspace
/// root, creating the directory if needed (a JSON report is all `header`,
/// no `lines`). Errors are printed, not fatal — results also go to stdout.
pub(crate) fn write_results(file: &str, header: &str, lines: &[String]) {
    let dir = repo_root().join("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &str) -> Result<Cmd, String> {
        parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    fn args(s: &str) -> (Vec<&'static str>, Args) {
        match parsed(s) {
            Ok(Cmd::Run(entries, a)) => (entries.iter().map(|e| e.name).collect(), a),
            Ok(Cmd::List) => panic!("{s:?} parsed as --list"),
            Err(e) => panic!("{s:?} rejected: {e}"),
        }
    }

    fn err(s: &str) -> String {
        parsed(s).err().unwrap_or_else(|| panic!("{s:?} accepted"))
    }

    #[test]
    fn entry_names_are_unique_and_all_listed() {
        let text = list();
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|o| o.name != e.name), "{}", e.name);
            assert_ne!(e.name, "all");
            let line = format!("  {:<20} {}\n", e.name, e.what);
            assert!(text.contains(&line), "--list misses {}", e.name);
        }
        assert!(matches!(parsed("--list"), Ok(Cmd::List)));
        assert!(matches!(parsed("table4 --list"), Ok(Cmd::List)));
    }

    #[test]
    fn all_dispatches_every_entry_exactly_once() {
        let (names, a) = args("all --fast");
        assert_eq!(names, ENTRIES.iter().map(|e| e.name).collect::<Vec<_>>());
        assert_eq!(a.scale, Scale::Fast);
        assert_eq!(args("fig5").0, ["fig5"]);
    }

    #[test]
    fn scale_and_selectors_reach_the_entry() {
        let (_, a) = args("table3 --datasets beauty,yelp --models sasrec,GRU4Rec --full");
        assert_eq!(a.datasets(&DATASETS), ["beauty", "yelp"]);
        assert_eq!(a.models, [BackboneKind::SasRec, BackboneKind::Gru4Rec]);
        assert_eq!((a.scale, a.h.scale, a.h.dim), (Scale::Full, 1.0, 32));
        let (_, a) = args("fig4 --users 7 --fast --fast");
        assert_eq!((a.users, a.h.scale, a.h.epochs), (7, 0.08, 2));
        let (_, a) = args("fig1 --sweep-insert");
        assert!(a.sweep_insert);
        assert_eq!((a.scale, a.h.scale, a.users), (Scale::Quick, 0.35, 3));
        assert_eq!(a.datasets(&["sports"]), ["sports"]);
        assert_eq!(a.models, BackboneKind::all());
    }

    // The flag, scale-conflict and unknown-name messages are checked through
    // the binary, with its exit code, in `tests/runner.rs`.
    #[test]
    fn malformed_command_lines_are_errors() {
        assert_eq!(err("fig4 --users"), "--users needs a value");
        assert_eq!(
            err("table2 table3"),
            "unexpected argument \"table3\": one entry per run"
        );
        let listed = list();
        assert_eq!(
            err("--fast"),
            format!("no entry given\n{}", listed.trim_end())
        );
    }

    #[test]
    fn profiles_resolve() {
        for d in DATASETS {
            assert!(SyntheticConfig::by_name(d).is_some(), "{d}");
        }
        let prep = prepare_profile("beauty", &HarnessConfig::for_scale(Scale::Quick));
        assert!(!prep.split.test.is_empty());
        assert!(prep.graph.total_edges() > 0);
    }

    #[test]
    fn metric_formatting_is_aligned() {
        let m = MetricReport::default();
        assert_eq!(metric_row("x", &m).len(), metric_header().len());
    }
}
