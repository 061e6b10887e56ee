//! `ssdrec-benchmark-driver` — started by `benchmark/run.sh` once the
//! product, this driver and the probes are built.
//!
//! Three ways to run it:
//!
//! * **one run** (`--workload W --trace 0|1`, the form `BENCHMARK.json`'s
//!   command takes): one workload, one seed; the last line of standard
//!   output is the result object. `--trace 0` measures the end-to-end
//!   metrics with tracing off; `--trace 1` is the traced pass — the
//!   workload again, shortened, with spans on, then every per-layer probe.
//! * **the suite** (no `--trace`): every workload end to end, then the
//!   traced pass, printed by name with units; writes `result.json`,
//!   `trace.json` and appends to `history.jsonl` under `--out`.
//! * **`--compare A B`**: judge set B against set A.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ssdrec_benchmark_driver::compare::{self, BenchSpec};
use ssdrec_benchmark_driver::json::Json;
use ssdrec_benchmark_driver::layers::{self, Layers};
use ssdrec_benchmark_driver::report::{self, Provenance};
use ssdrec_benchmark_driver::sizes::sizes;
use ssdrec_benchmark_driver::trace::{self, Tracer};
use ssdrec_benchmark_driver::workloads::{self, E2e, Env, WORKLOADS};

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--e2e-only | --layers-only] [--smoke] [--seeds N] [--history FILE]
       benchmark/run.sh --compare A.jsonl B.jsonl
  --workload NAME   one of train_ssdrec, data_to_train, serve_default, serve_direct, online_loop
  --seed N          input seed (default 1)
  --seconds S       timed seconds per workload (default: run_seconds of BENCHMARK.json)
  --trace 0|1       one run; the last line printed is the result object
                    (0: end-to-end metrics, 1: traced pass, per-layer metrics)
  --e2e-only        suite without the traced pass
  --layers-only     suite: traced pass only
  --smoke           tiny sizes, one second per workload: checks every step, measures nothing
  --seeds N         suite: repeat with seeds seed..seed+N (a set for --compare)
  --history FILE    where run records are appended (default <out>/history.jsonl)
  --compare A B     per (metric, workload): B's median against A's and the bound";

/// The traced pass runs the workload for this share of the timed seconds
/// (at least one): long enough to put every kind of step in the trace; the
/// rest of the pass belongs to the probes.
const TRACED_PASS_SHARE: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    root: PathBuf,
    bin: PathBuf,
    probe_dir: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    e2e_only: bool,
    layers_only: bool,
    smoke: bool,
    seeds: u64,
    history: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        root: PathBuf::from("."),
        bin: PathBuf::from("target/release/ssdrec"),
        probe_dir: PathBuf::from("target/release"),
        out: PathBuf::from("target/benchmark"),
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        e2e_only: false,
        layers_only: false,
        smoke: false,
        seeds: 1,
        history: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--root" => a.root = value()?.into(),
            "--bin" => a.bin = value()?.into(),
            "--probe-dir" => a.probe_dir = value()?.into(),
            "--out" => a.out = value()?.into(),
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                })
            }
            "--seeds" => {
                a.seeds = value()?
                    .parse()
                    .map_err(|_| "--seeds wants a whole number")?;
                if a.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--history" => a.history = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            "--e2e-only" => a.e2e_only = true,
            "--layers-only" => a.layers_only = true,
            "--smoke" => a.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.e2e_only && a.layers_only {
        return Err("--e2e-only and --layers-only exclude each other".into());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(a)
}

/// Everything a run needs besides its arguments.
struct Ctx {
    args: Args,
    spec: BenchSpec,
    seconds: f64,
    history: PathBuf,
}

/// A fresh scratch directory for one workload run, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path, label: &str) -> Result<Scratch, String> {
        let dir = out
            .join("work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // Children run with this as their working directory: make it absolute.
        dir.canonicalize()
            .map(Scratch)
            .map_err(|e| format!("{}: {e}", dir.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run_e2e(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<E2e, String> {
    let scratch = Scratch::new(&ctx.args.out, workload)?;
    let env = Env {
        bin: &ctx.args.bin,
        work: &scratch.0,
        smoke: ctx.args.smoke,
        tracer,
        setup_reps: if tracer.is_some() { 1 } else { SETUP_REPS },
        seconds,
        seed,
    };
    workloads::run(workload, &env)
}

/// How long the traced pass runs the workload itself.
fn traced_seconds(ctx: &Ctx) -> f64 {
    (ctx.seconds * TRACED_PASS_SHARE).max(1.0).min(ctx.seconds)
}

fn run_layers(ctx: &Ctx, seed: u64, tracer: &Tracer) -> Result<Layers, String> {
    let scratch = Scratch::new(&ctx.args.out, "probes")?;
    Ok(layers::run_probes(
        &ctx.args.probe_dir,
        &scratch.0,
        seed,
        ctx.seconds,
        ctx.args.smoke,
        tracer,
    ))
}

fn provenance_json(ctx: &Ctx, seed: u64, layers: Option<&Layers>) -> Json {
    Provenance::gather(&ctx.args.root, seed, ctx.args.smoke, ctx.seconds).to_json(
        sizes(ctx.args.smoke),
        layers.and_then(|l| l.get("runtime.threads")),
    )
}

fn write_trace(ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
    let doc = trace::chrome_trace(&tracer.spans()).render();
    report::write_file(&ctx.args.out.join("trace.json"), &doc)
}

/// The result object the one-run form ends its output with.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

fn metric_obj(value: Option<f64>, unit: &str) -> Json {
    Json::obj([
        ("value", value.map_or(Json::Null, Json::num)),
        ("unit", Json::str(unit)),
    ])
}

/// `--workload W --trace 0`: the end-to-end metrics of one run.
fn one_run_e2e(ctx: &Ctx, workload: &str) -> Result<bool, String> {
    let r = run_e2e(ctx, workload, ctx.args.seed, ctx.seconds, None)?;
    report::print_e2e(&r);
    report::append_line(
        &ctx.history,
        &report::e2e_record(&r, provenance_json(ctx, ctx.args.seed, None)),
    )?;
    let declared: Vec<&str> = ctx
        .spec
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let measured: Vec<&str> = r.metrics().iter().map(|m| m.0).collect();
    if declared != measured {
        return Err(format!(
            "BENCHMARK.json declares {declared:?} but the driver measures {measured:?}"
        ));
    }
    let metrics = Json::obj(
        r.metrics()
            .into_iter()
            .map(|(name, value, unit)| (name, metric_obj(Some(value), unit))),
    );
    println!(
        "{}",
        result_line(r.correct(), r.attempted, r.failed, metrics)
    );
    Ok(r.correct())
}

/// `--workload W --trace 1`: the traced pass of one workload, then every
/// probe; the metrics are the per-layer ones.
fn one_run_traced(ctx: &Ctx, workload: &str) -> Result<bool, String> {
    let tracer = Tracer::new(workload);
    let r = run_e2e(
        ctx,
        workload,
        ctx.args.seed,
        traced_seconds(ctx),
        Some(&tracer),
    )?;
    let layers = run_layers(ctx, ctx.args.seed, &tracer)?;
    write_trace(ctx, &tracer)?;
    let selfs = trace::self_times(&tracer.spans());
    report::print_e2e(&r);
    report::print_self_times(&selfs);
    report::print_layers(&layers);
    report::append_line(
        &ctx.history,
        &report::layers_record(
            &layers,
            &selfs,
            provenance_json(ctx, ctx.args.seed, Some(&layers)),
        ),
    )?;
    let declared: Vec<(&str, &str)> = ctx
        .spec
        .per_layer
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    let measured: Vec<(&str, &str)> = layers
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if declared != measured {
        return Err("BENCHMARK.json's per_layer list and the probe table differ".into());
    }
    let probes = layers::PROBES.len() as u64;
    let failed_probes = layers.probe_failed.len() as u64;
    let correct = r.correct() && failed_probes == 0;
    let metrics = Json::obj(
        layers
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), metric_obj(m.value, &m.unit))),
    );
    println!(
        "{}",
        result_line(
            correct,
            r.attempted + probes,
            r.failed + failed_probes,
            metrics
        )
    );
    Ok(correct)
}

/// No `--trace`: every (selected) workload end to end, then the traced
/// pass, for each seed of the set.
fn suite(ctx: &Ctx) -> Result<bool, String> {
    let selected: Vec<&str> = match &ctx.args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    let mut e2e_records = Vec::new();
    let mut layer_record = Json::Null;
    for seed in (0..ctx.args.seeds).map(|i| ctx.args.seed.wrapping_add(i)) {
        if !ctx.args.layers_only {
            for w in &selected {
                let r = run_e2e(ctx, w, seed, ctx.seconds, None)?;
                report::print_e2e(&r);
                all_ok &= r.correct();
                let rec = report::e2e_record(&r, provenance_json(ctx, seed, None));
                report::append_line(&ctx.history, &rec)?;
                e2e_records.push(rec);
            }
        }
        if !ctx.args.e2e_only {
            let master = Tracer::new("probes");
            for w in &selected {
                let tracer = Tracer::new(w);
                let offset = master.now_us();
                let r = run_e2e(ctx, w, seed, traced_seconds(ctx), Some(&tracer))?;
                all_ok &= r.correct();
                master.adopt(tracer.spans(), offset);
            }
            let layers = run_layers(ctx, seed, &master)?;
            write_trace(ctx, &master)?;
            let selfs = trace::self_times(&master.spans());
            report::print_self_times(&selfs);
            report::print_layers(&layers);
            all_ok &= layers.probe_failed.is_empty();
            layer_record =
                report::layers_record(&layers, &selfs, provenance_json(ctx, seed, Some(&layers)));
            report::append_line(&ctx.history, &layer_record)?;
        }
    }
    let result = Json::obj([
        ("end_to_end", Json::Arr(e2e_records)),
        ("per_layer", layer_record),
    ]);
    report::write_file(&ctx.args.out.join("result.json"), &result.render())?;
    println!(
        "results: {0}/result.json, {0}/trace.json, history in {1}",
        ctx.args.out.display(),
        ctx.history.display()
    );
    println!(
        "{}",
        if all_ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

fn compare_sets(spec: &BenchSpec, a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| compare::read_set(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let ((set_a, bad_a), (set_b, bad_b)) = (read(a)?, read(b)?);
    println!("A = {}  B = {}", a.display(), b.display());
    if bad_a + bad_b > 0 {
        println!("skipped {bad_a} incorrect run(s) in A, {bad_b} in B");
    }
    let ok = compare::print_rows(&compare::compare(spec, &set_a, &set_b));
    Ok(ok && bad_b == 0)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec_path = args.root.join("BENCHMARK.json");
    let spec = fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| BenchSpec::parse(&t))?;
    if let Some((a, b)) = &args.compare {
        return compare_sets(&spec, a, b);
    }
    if !args.bin.is_file() {
        return Err(format!("{} is not built", args.bin.display()));
    }
    fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds });
    let history = args
        .history
        .clone()
        .unwrap_or_else(|| args.out.join("history.jsonl"));
    let ctx = Ctx {
        args,
        spec,
        seconds,
        history,
    };
    match (ctx.args.trace, ctx.args.workload.clone()) {
        (Some(false), Some(w)) => one_run_e2e(&ctx, &w),
        (Some(true), Some(w)) => one_run_traced(&ctx, &w),
        _ => suite(&ctx),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) if e.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
