//! `ssdrec` — the workspace CLI.
//!
//! ```text
//! ssdrec stats     [--profile NAME | --file PATH --format movielens|csv] [--scale F]
//! ssdrec train     [--profile NAME | --file PATH --format F] [--backbone B] [--dim D]
//!                  [--epochs E] [--batch-size B] [--max-len L] [--seed S]
//!                  [--baseline | --contrastive | --mgsd] [--out CKPT] [--verbose]
//!                  [--cl-weight W] [--cl-tau T] [--aug-rate R]
//!                  [--state PATH [--resume] [--checkpoint-every N]]
//! ssdrec recommend --model CKPT --user U [--k K] (same data/arch/scenario flags as train)
//! ssdrec denoise   (same data/arch flags as train) [--user U]
//! ssdrec serve     --model CKPT [--addr HOST:PORT] [--workers N] [--max-batch B]
//!                  [--linger-ms MS] [--cache N] [--max-queue N]
//!                  [--read-timeout-ms MS] [--write-timeout-ms MS]
//!                  (same data/arch flags as train)
//! ssdrec serve     --ckpt-dir DIR --log PATH [--watch-current [--reload-poll-ms MS]]
//!                  (versioned serving with POST /reload hot-swap)
//! ssdrec ingest    --log PATH [--events "u:i,u:i,..."] [--data FILE.ssdc]
//!                  [--profile NAME --scale F --seed S | --users N --items M]
//! ssdrec retrain   --log PATH --ckpt-dir DIR [--epochs N] (same arch flags as train)
//! ssdrec gen-data  --out FILE.ssdc [--profile NAME --scale F --seed S |
//!                  --file PATH --format movielens|csv]
//! ```
//!
//! `gen-data` materializes a dataset as a binary columnar `.ssdc` file;
//! `train --data FILE.ssdc` trains straight off it, streaming sequences
//! through a bounded window so peak RAM stays independent of corpus size.
//! The result is bit-identical to training the same dataset in RAM: same
//! batches, same metrics, same checkpoints.
//!
//! `--baseline` trains the bare backbone instead of wrapping it in SSDRec.
//! `--state PATH` checkpoints full training state (params, optimizer
//! moments, RNG) every `--checkpoint-every` epochs; `--resume` continues a
//! killed run from it **bit-identically**. The `SSDREC_FAULTS` env var arms
//! deterministic fault injection (`site:kind:nth`, see `ssdrec_base::faults`).
//!
//! The online loop: `ingest` appends interactions to an append-only log,
//! `retrain` is a warm-started full retrain — it starts from the latest
//! published version's training state, replays the whole log and trains
//! every user into `--ckpt-dir/v000N/` — and a `serve --ckpt-dir`
//! server hot-swaps new versions in via `POST /reload` (or automatically
//! with `--watch-current`) without dropping a request.

mod args;

use std::process::ExitCode;

use args::Args;
use ssdrec_core::{build_model, ModelContext, ModelKind, Prepared, SsdRec};
use ssdrec_data::{
    load_interactions, load_to_columnar, plan_leave_one_out, ColumnarReader, Dataset, Example,
    LoadOptions, SequenceStore, SyntheticConfig, TruncatedStore,
};
use ssdrec_denoise::keep_each;
use ssdrec_graph::{build_graph, build_graph_from_store, GraphConfig};
use ssdrec_models::{
    fit, train, BackboneKind, CheckpointConfig, RecModel, SeqRec, SourceSplit, TrainConfig,
    TrainOptions, TrainReport,
};
use ssdrec_serve::{
    Engine, EngineConfig, EngineSlot, InferenceModel, LoadedModel, ModelLoader, ServeConfig,
    ServerStats,
};
use ssdrec_stream::{ArchSpec, LogError, LogHeader, RetrainOutcome, RetrainSpec, StreamLog};
use ssdrec_tensor::{load_params, save_params};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The usage text. It is also the list of accepted options: any `--NAME`
/// it does not spell is refused (see [`main`]).
fn usage() -> &'static str {
    "usage: ssdrec <stats|train|recommend|denoise|serve|ingest|retrain|gen-data> [options]\n\
     options (each command reads those it needs; the module docs list them per command):\n\
     --profile beauty|sports|yelp|ml-100k|ml-1m   synthetic profile (default beauty)\n\
     --scale F       synthetic profile size factor (default 0.5)\n\
     --file PATH --format movielens|csv           load real interaction data instead\n\
     --out FILE.ssdc  destination columnar file (gen-data)\n\
     --data FILE.ssdc train/ingest from a columnar file (train, ingest)\n\
     --backbone SASRec|GRU4Rec|NARM|STAMP|Caser|BERT4Rec (default SASRec)\n\
     --dim D --epochs E --batch-size B --max-len L --seed S\n\
     --patience P    early-stopping patience in epochs (default 5; train, denoise)\n\
     --verbose       per-epoch progress on stderr (train, denoise, retrain)\n\
     --baseline      train the bare backbone (no SSDRec wrapper)\n\
     --contrastive   train the CL4SRec-style contrastive scenario on the\n\
                     backbone (crop/reorder/mask views + InfoNCE)\n\
     --cl-weight W --cl-tau T --aug-rate R   contrastive knobs\n\
                     (defaults 0.1 / 0.5 / 0.4; only with --contrastive)\n\
     --mgsd          train the MGSD-WSS multi-granularity denoiser\n\
                     (weakly supervised by noise labels when present)\n\
     --out CKPT      write a checkpoint after training\n\
     --model CKPT    checkpoint to load (recommend, serve)\n\
     --user U --k K  serving target (recommend)\n\
     --threads N     compute threads for every subcommand, at most the\n\
                     available cores (default: the SSDREC_THREADS env var\n\
                     under the same cap, else all available cores)\n\
     --state PATH    training-state file for periodic checkpointing (train)\n\
     --resume        continue bit-identically from --state if it exists\n\
     --checkpoint-every N   epochs between state saves (default 1)\n\
     --addr HOST:PORT --workers N --max-batch B --linger-ms MS --cache N (serve)\n\
     --max-queue N --read-timeout-ms MS --write-timeout-ms MS (serve)\n\
     --log PATH      append-only interaction log (ingest, retrain, serve --ckpt-dir)\n\
     --events L      comma-separated user:item pairs to append (ingest)\n\
     --users N --items M   explicit catalog when creating a log (ingest)\n\
     --ckpt-dir DIR  versioned checkpoint directory (retrain, serve)\n\
     --watch-current poll the ckpt-dir CURRENT pointer and hot-swap (serve)\n\
     --reload-poll-ms MS   poll interval for --watch-current (default 500)\n\
     env SSDREC_FAULTS=site:kind:nth[,...]   arm deterministic fault injection"
}

/// Apply `--threads N` (uniform across subcommands) to the runtime pool and
/// return the effective thread count: `N` capped at the available cores,
/// with a warning when it is. Without the flag the pool keeps its default,
/// which honours the `SSDREC_THREADS` env var under the same cap. Results
/// are bit-identical at every thread count; this only trades wall-clock
/// time.
fn configure_threads(a: &Args) -> Result<usize, String> {
    match a.get_parse::<usize>("threads", 0)? {
        0 if a.get("threads").is_some() => {
            Err("--threads must be ≥ 1 (results are identical at any count)".into())
        }
        0 => Ok(ssdrec_runtime::threads()),
        n => {
            let n = ssdrec_runtime::clamp_to_cores(n, "--threads");
            ssdrec_runtime::set_threads(n);
            Ok(n)
        }
    }
}

/// `--format movielens|csv` (default csv) → how `--file` is parsed.
fn load_options(a: &Args) -> Result<LoadOptions, String> {
    match a.get_or("format", "csv") {
        "movielens" => Ok(LoadOptions::movielens()),
        "csv" => Ok(LoadOptions::csv_triples()),
        other => Err(format!("unknown --format {other}")),
    }
}

/// `--profile NAME --scale F --seed S` → the synthetic generator config.
fn profile_config(a: &Args) -> Result<SyntheticConfig, String> {
    let name = a.get_or("profile", "beauty");
    let cfg = SyntheticConfig::by_name(name).ok_or_else(|| format!("unknown --profile {name}"))?;
    let scale: f64 = a.get_parse("scale", 0.5)?;
    let seed: u64 = a.get_parse("seed", 7)?;
    Ok(cfg.scaled(scale).with_seed(seed))
}

fn load_dataset(a: &Args) -> Result<Dataset, String> {
    match a.get("file") {
        Some(path) => load_interactions(path, &load_options(a)?).map_err(|e| e.to_string()),
        None => Ok(profile_config(a)?.generate()),
    }
}

fn backbone(a: &Args) -> Result<BackboneKind, String> {
    let name = a.get_or("backbone", "SASRec");
    BackboneKind::by_name(name).ok_or_else(|| format!("unknown --backbone {name}"))
}

fn prepare_data(a: &Args) -> Result<Prepared, String> {
    let prep = Prepared::new(&load_dataset(a)?, a.get_parse("max-len", 50)?, 3);
    if prep.split.test.is_empty() {
        return Err("no usable sequences after 5-core filtering".into());
    }
    Ok(prep)
}

/// `--dim D --seed S --backbone B` over a prepared world → the context
/// every model of this run is built from.
fn model_context<'a>(a: &Args, prep: &'a Prepared) -> Result<ModelContext<'a>, String> {
    Ok(prep.context(
        a.get_parse("dim", 16)?,
        a.get_parse("seed", 7)?,
        backbone(a)?,
    ))
}

fn build_ssdrec(a: &Args, prep: &Prepared) -> Result<SsdRec, String> {
    let cfg = model_context(a, prep)?.ssdrec_config();
    Ok(SsdRec::new(&prep.graph, cfg))
}

fn train_config(a: &Args) -> Result<TrainConfig, String> {
    Ok(TrainConfig {
        epochs: a.get_parse("epochs", 15)?,
        batch_size: a.get_parse("batch-size", 64)?,
        patience: a.get_parse("patience", 5)?,
        seed: a.get_parse("seed", 7)?,
        verbose: a.has_flag("verbose"),
        ..TrainConfig::default()
    })
}

fn cmd_stats(a: &Args) -> Result<(), String> {
    let ds = load_dataset(a)?;
    println!("dataset     : {}", ds.name);
    println!("users       : {}", ds.num_users);
    println!("items       : {}", ds.num_items);
    println!("actions     : {}", ds.num_actions());
    println!("avg length  : {:.2}", ds.avg_len());
    println!("sparsity    : {:.2}%", ds.sparsity());
    let graph = build_graph(&ds, &GraphConfig::default());
    println!("graph edges : {} (5 relation types)", graph.total_edges());
    println!(
        "
{}",
        ssdrec_graph::GraphReport::new(&graph).to_table()
    );
    Ok(())
}

/// `--state PATH [--resume] [--checkpoint-every N]` → the trainer's
/// checkpoint configuration (None when no state file was requested).
fn checkpoint_config(a: &Args) -> Result<Option<CheckpointConfig>, String> {
    let Some(path) = a.get("state") else {
        if a.has_flag("resume") {
            return Err("--resume requires --state PATH".into());
        }
        return Ok(None);
    };
    Ok(Some(CheckpointConfig {
        path: path.into(),
        every: a.get_parse("checkpoint-every", 1)?,
        resume: a.has_flag("resume"),
    }))
}

/// Which entry of the model table `train` runs: the SSDRec wrapper
/// (default), the bare backbone (`--baseline`), the contrastive head
/// (`--contrastive`, with `--cl-weight` / `--cl-tau` / `--aug-rate`, all
/// optional; workspace defaults otherwise), or the multi-granularity
/// denoiser (`--mgsd`).
fn model_kind(a: &Args) -> Result<ModelKind, String> {
    let picked = ["baseline", "contrastive", "mgsd"].map(|flag| a.has_flag(flag));
    if picked.iter().filter(|&&on| on).count() > 1 {
        return Err("--baseline, --contrastive and --mgsd are mutually exclusive".into());
    }
    Ok(match picked {
        [true, _, _] => ModelKind::Backbone,
        [_, true, _] => {
            let cl_weight = a.get_parse("cl-weight", ssdrec_models::DEFAULT_CL_WEIGHT)?;
            let cl_tau = a.get_parse("cl-tau", ssdrec_models::DEFAULT_CL_TAU)?;
            let aug_rate = a.get_parse("aug-rate", ssdrec_models::DEFAULT_AUG_RATE)?;
            if cl_weight < 0.0 {
                return Err("--cl-weight must be ≥ 0".into());
            }
            if cl_tau <= 0.0 {
                return Err("--cl-tau must be > 0".into());
            }
            if !(0.0..=1.0).contains(&aug_rate) {
                return Err("--aug-rate must be in [0, 1]".into());
            }
            ModelKind::Contrastive {
                cl_weight,
                cl_tau,
                aug_rate,
            }
        }
        [_, _, true] => ModelKind::Mgsd,
        _ => ModelKind::SsdRec,
    })
}

fn print_data_line(num_items: usize, sources: &SourceSplit<'_>) {
    println!(
        "data: {num_items} items, {} train / {} valid / {} test examples",
        sources.train.num_examples(),
        sources.valid.num_examples(),
        sources.test.num_examples()
    );
}

/// The trainer's summary as `train` and `retrain` print it. The `skipped`
/// line appears only when a step was skipped.
fn print_report(report: &TrainReport) {
    println!("epochs: {}", report.epochs_run);
    if report.skipped_steps > 0 {
        println!("skipped: {} non-finite step(s)", report.skipped_steps);
    }
    println!("valid : {}", report.valid);
    println!("test  : {}", report.test);
}

/// `train`: resolve the input to a model context and a [`SourceSplit`],
/// then build the model from the table and run the trainer.
///
/// `--profile`/`--file` take the in-RAM path: k-core filter, owned split.
/// `--data FILE.ssdc` is the out-of-core path: the file is read through a
/// bounded window, sequences are truncated lazily to `--max-len`, split
/// with leave-one-out (min length 3, up to 3 training prefixes per user),
/// the graph is built over the store only when the model
/// [reads it](ModelKind::reads_graph), and the trainer pulls batches
/// through [`StoreExamples`](ssdrec_data::StoreExamples) — nothing ever
/// materializes the whole corpus. Its metric lines are bit-identical to
/// training the same dataset in RAM.
fn cmd_train(a: &Args) -> Result<(), String> {
    // A bad model flag is reported where the model is built, after the
    // lines printed before it; resolving it here only decides the graph.
    let kind = model_kind(a);
    // Whichever backing the input resolves to must outlive the training run.
    let (prep, reader, store, plan, views, graph);
    let (ctx, sources): (ModelContext<'_>, SourceSplit<'_>) = if let Some(data) = a.get("data") {
        if a.get("file").is_some() || a.get("profile").is_some() {
            return Err("--data is exclusive with --file/--profile".into());
        }
        let max_len: usize = a.get_parse("max-len", 50)?;
        reader = ColumnarReader::open(data).map_err(|e| e.to_string())?;
        store = TruncatedStore::new(&reader, max_len);
        plan = plan_leave_one_out(&store, 3, 3);
        if plan.test.is_empty() {
            return Err("no usable sequences in the columnar file (need length ≥ 3)".into());
        }
        views = plan.views(&store);
        let sources = SourceSplit::from(&views);
        print_data_line(store.num_items(), &sources);
        println!("mode : windowed ({data})");
        graph = kind
            .as_ref()
            .is_ok_and(|k| k.reads_graph())
            .then(|| build_graph_from_store(&store, &GraphConfig::default()));
        let ctx = ModelContext {
            num_users: store.num_users(),
            num_items: store.num_items(),
            dim: a.get_parse("dim", 16)?,
            max_len,
            seed: a.get_parse("seed", 7)?,
            backbone: backbone(a)?,
            graph: graph.as_ref(),
            // Read by DCRec only, which `train` does not offer.
            item_freq: &[],
        };
        (ctx, sources)
    } else {
        prep = prepare_data(a)?;
        let sources = SourceSplit::from(&prep.split);
        print_data_line(prep.dataset.num_items, &sources);
        (model_context(a, &prep)?, sources)
    };
    let tc = train_config(a)?;
    let ckpt = checkpoint_config(a)?;
    if let Some(c) = &ckpt {
        let mode = if c.resume && c.path.exists() {
            "resuming from"
        } else {
            "checkpointing to"
        };
        println!(
            "state : {mode} {} every {} epoch(s)",
            c.path.display(),
            c.every.max(1)
        );
    }
    let mut model = build_model(kind?, &ctx);
    let opts = TrainOptions {
        warm: None,
        ckpt: ckpt.as_ref(),
    };
    let report = fit(&mut *model, &sources, &tc, &opts)?;
    println!("model : {}", model.model_name());
    print_report(&report);
    if let Some(out) = a.get("out") {
        save_params(model.store(), out).map_err(|e| e.to_string())?;
        println!("checkpoint written to {out}");
    }
    Ok(())
}

/// `gen-data --out FILE.ssdc`: materialize a dataset as a binary columnar
/// file — streaming straight from the synthetic generator (profiles) or
/// converted from a text interaction file (`--file/--format`). The write is
/// atomic (temp + rename), so a crash never leaves a torn file behind.
fn cmd_gen_data(a: &Args) -> Result<(), String> {
    let out = a
        .get("out")
        .ok_or("gen-data requires --out FILE.ssdc (the destination columnar file)")?;
    let summary = match a.get("file") {
        Some(path) => load_to_columnar(path, &load_options(a)?, out).map_err(|e| e.to_string())?,
        None => profile_config(a)?
            .generate_to(out)
            .map_err(|e| e.to_string())?,
    };
    println!(
        "wrote {out}: {} users, {} interactions, {} bytes",
        summary.num_users, summary.num_interactions, summary.bytes
    );
    Ok(())
}

/// The model `train` builds for these flags, its parameters loaded from
/// `ckpt`: any checkpoint `train --out` wrote with the same flags loads.
fn load_trained_model(a: &Args, prep: &Prepared, ckpt: &str) -> Result<Box<dyn RecModel>, String> {
    let mut model = build_model(model_kind(a)?, &model_context(a, prep)?);
    load_params(model.store_mut(), ckpt).map_err(|e| e.to_string())?;
    Ok(model)
}

fn cmd_recommend(a: &Args) -> Result<(), String> {
    let prep = prepare_data(a)?;
    let ckpt = a
        .get("model")
        .ok_or("recommend requires --model CKPT (train one with `ssdrec train --out ...`)")?;
    let model = load_trained_model(a, &prep, ckpt)?;
    println!("loaded checkpoint {ckpt}");
    let user: usize = a.get_parse("user", 0)?;
    let k: usize = a.get_parse("k", 10)?;
    let ex = prep
        .split
        .test
        .iter()
        .find(|e| e.user == user)
        .ok_or_else(|| format!("user {user} has no test sequence"))?;
    println!("user {user} history: {:?}", ex.seq);
    println!("top-{k} recommendations:");
    for (rank, (item, score)) in model.recommend(user, &ex.seq, k).iter().enumerate() {
        let mark = if *item == ex.target {
            "  ← held-out next item"
        } else {
            ""
        };
        println!(
            "  {:>2}. item {:>5}  score {:+.4}{}",
            rank + 1,
            item,
            score,
            mark
        );
    }
    Ok(())
}

fn cmd_denoise(a: &Args) -> Result<(), String> {
    let prep = prepare_data(a)?;
    let mut model = build_ssdrec(a, &prep)?;
    let tc = train_config(a)?;
    println!("training SSDRec for denoising …");
    train(&mut model, &prep.split, &tc);
    let user: usize = a.get_parse("user", usize::MAX)?;
    let examples: Vec<Example> = prep
        .split
        .test
        .iter()
        .filter(|ex| user == usize::MAX || ex.user == user)
        .cloned()
        .collect();
    let mut shown = 0;
    for (ex, keep) in examples.iter().zip(keep_each(&model, &examples)) {
        let denoised: Vec<usize> = ex
            .seq
            .iter()
            .zip(&keep.kept)
            .filter(|(_, &k)| k)
            .map(|(&i, _)| i)
            .collect();
        if denoised.len() < ex.seq.len() {
            println!("user {:>4}: {:?} → {:?}", ex.user, ex.seq, denoised);
            shown += 1;
        }
        if shown >= 10 && user == usize::MAX {
            break;
        }
    }
    if shown == 0 {
        println!("no sequences were modified (the denoiser kept everything)");
    }
    Ok(())
}

/// Parse an `--events "u:i,u:i,..."` list into `(user, item)` pairs,
/// rejecting malformed pairs with the offending fragment in the message.
fn parse_events(spec: &str) -> Result<Vec<(usize, usize)>, String> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|pair| {
            let (u, i) = pair
                .split_once(':')
                .ok_or_else(|| format!("--events: {pair:?} is not user:item"))?;
            let user = u
                .trim()
                .parse()
                .map_err(|_| format!("--events: bad user in {pair:?}"))?;
            let item = i
                .trim()
                .parse()
                .map_err(|_| format!("--events: bad item in {pair:?}"))?;
            Ok((user, item))
        })
        .collect()
}

/// `--users N --items M` → an explicit log catalog; both or neither.
fn explicit_catalog(a: &Args) -> Result<Option<LogHeader>, String> {
    match (a.get("users"), a.get("items")) {
        (None, None) => Ok(None),
        (Some(_), Some(_)) => {
            let num_users: usize = a.get_parse("users", 0)?;
            let num_items: usize = a.get_parse("items", 0)?;
            if num_users == 0 || num_items == 0 {
                return Err("--users and --items must both be ≥ 1".into());
            }
            Ok(Some(LogHeader {
                num_users,
                num_items,
            }))
        }
        _ => Err("--users and --items must be given together".into()),
    }
}

/// Architecture + training knobs for `retrain` (same defaults as `train`;
/// the arch half must match the checkpoint directory on every round).
fn retrain_spec(a: &Args) -> Result<RetrainSpec, String> {
    let epochs: usize = a.get_parse("epochs", 1)?;
    if epochs == 0 {
        return Err(
            "--epochs must be ≥ 1 (each round is a warm-started full retrain of exactly N epochs)"
                .into(),
        );
    }
    let defaults = TrainConfig::default();
    Ok(RetrainSpec {
        arch: ArchSpec {
            backbone: backbone(a)?,
            dim: a.get_parse("dim", 16)?,
            max_len: a.get_parse("max-len", 50)?,
            seed: a.get_parse("seed", 7)?,
        },
        epochs,
        batch_size: a.get_parse("batch-size", 64)?,
        lr: defaults.lr,
        weight_decay: defaults.weight_decay,
        checkpoint_every: a.get_parse("checkpoint-every", 1)?,
    })
}

/// `--watch-current [--reload-poll-ms MS]` → the server's poll interval.
/// `--reload-poll-ms` without `--watch-current` is a contradiction and is
/// rejected, as is a zero interval.
fn reload_poll(a: &Args) -> Result<Option<Duration>, String> {
    let watch = a.has_flag("watch-current");
    if !watch {
        if a.get("reload-poll-ms").is_some() {
            return Err("--reload-poll-ms requires --watch-current".into());
        }
        return Ok(None);
    }
    let ms: u64 = a.get_parse("reload-poll-ms", 500)?;
    if ms == 0 {
        return Err("--reload-poll-ms must be ≥ 1".into());
    }
    Ok(Some(Duration::from_millis(ms)))
}

/// Open (or create, pinning `catalog`) the log at `log_path`, run `append`
/// on it, sync, and print the one-line summary.
fn append_to_log(
    log_path: &str,
    catalog: Option<LogHeader>,
    append: impl FnOnce(&mut StreamLog) -> Result<u64, LogError>,
) -> Result<(), String> {
    let (mut log, created) = ssdrec_stream::open_or_create_log(Path::new(log_path), catalog)?;
    let before = log.records();
    append(&mut log).map_err(|e| e.to_string())?;
    log.sync().map_err(|e| e.to_string())?;
    let h = log.header();
    println!(
        "{} {} ({} users, {} items): +{} records, {} total, end offset {}",
        if created { "created" } else { "appended to" },
        log_path,
        h.num_users,
        h.num_items,
        log.records() - before,
        log.records(),
        log.end()
    );
    Ok(())
}

fn cmd_ingest(a: &Args) -> Result<(), String> {
    let log_path = a.get("log").ok_or("ingest requires --log PATH")?;
    let explicit = explicit_catalog(a)?;
    if a.get("data").is_some() && a.get("events").is_some() {
        return Err("--data and --events are mutually exclusive".into());
    }
    // Event source: a columnar file (bulk-loaded without materializing it),
    // an explicit --events list, else a bulk load of the synthetic profile
    // (user-major, time-ordered within each user).
    if let Some(data) = a.get("data") {
        let reader = ColumnarReader::open(data).map_err(|e| e.to_string())?;
        let catalog = explicit.or(Some(LogHeader {
            num_users: ColumnarReader::num_users(&reader),
            num_items: ColumnarReader::num_items(&reader),
        }));
        return append_to_log(log_path, catalog, |log| log.bulk_load(&reader));
    }
    let (catalog, events): (Option<LogHeader>, Vec<(usize, usize)>) = match a.get("events") {
        Some(spec) => (explicit, parse_events(spec)?),
        None => {
            let ds = load_dataset(a)?;
            let catalog = explicit.or(Some(LogHeader {
                num_users: ds.num_users,
                num_items: ds.num_items,
            }));
            let events = ds
                .sequences
                .iter()
                .enumerate()
                .flat_map(|(u, seq)| seq.iter().map(move |&i| (u, i)))
                .collect();
            (catalog, events)
        }
    };
    append_to_log(log_path, catalog, |log| log.append_all(events))
}

fn cmd_retrain(a: &Args) -> Result<(), String> {
    let log = a.get("log").ok_or("retrain requires --log PATH")?;
    let root = a
        .get("ckpt-dir")
        .ok_or("retrain requires --ckpt-dir DIR (the versioned checkpoint directory)")?;
    let spec = retrain_spec(a)?;
    match ssdrec_stream::retrain(
        Path::new(log),
        Path::new(root),
        &spec,
        a.has_flag("verbose"),
    )? {
        RetrainOutcome::UpToDate { version } => {
            println!("up to date: v{version:04} already covers the whole log");
        }
        RetrainOutcome::Trained(t) => {
            println!(
                "published v{:04}: consumed {} new record(s) up to offset {}",
                t.version, t.delta_records, t.consumed
            );
            print_report(&t.report);
        }
    }
    Ok(())
}

/// The serving engine over `model`, from the engine flags shared by both
/// `serve` forms (`--workers`, `--max-batch`, `--linger-ms`, `--cache`,
/// `--max-queue`).
fn build_engine(a: &Args, model: InferenceModel, max_len: usize) -> Result<Engine, String> {
    let cfg = EngineConfig {
        workers: a.get_parse("workers", 2)?,
        max_batch: a.get_parse("max-batch", 32)?,
        linger: Duration::from_millis(a.get_parse("linger-ms", 2)?),
        cache_capacity: a.get_parse("cache", 1024)?,
        max_len,
        max_queue: a.get_parse("max-queue", 1024)?,
    };
    Ok(Engine::new(model, cfg, Arc::new(ServerStats::new())))
}

/// Bind `--addr`, announce the endpoints, and block until `POST /shutdown`.
fn serve_until_shutdown(
    a: &Args,
    slot: EngineSlot,
    reload_poll: Option<Duration>,
) -> Result<(), String> {
    let reloadable = slot.is_reloadable();
    let serve_cfg = ServeConfig {
        read_timeout: Duration::from_millis(a.get_parse("read-timeout-ms", 30_000)?),
        write_timeout: Duration::from_millis(a.get_parse("write-timeout-ms", 30_000)?),
        reload_poll,
    };
    let addr = a.get_or("addr", "127.0.0.1:7878");
    let handle = ssdrec_serve::serve_slot(slot, addr, serve_cfg).map_err(|e| e.to_string())?;
    println!("serving on http://{}", handle.addr());
    println!("  GET  /health");
    println!("  GET  /recommend?user=U&seq=1,2,3&k=10   (or POST a JSON body)");
    println!("  GET  /metrics");
    if reloadable {
        println!("  POST /reload");
    }
    println!("  POST /shutdown");
    handle.join();
    println!("server stopped");
    Ok(())
}

/// `serve --ckpt-dir DIR --log PATH`: serve the `CURRENT` version with
/// hot-swap via `POST /reload` and (optionally) a `CURRENT`-file watcher.
fn cmd_serve_stream(a: &Args) -> Result<(), String> {
    if a.get("model").is_some() {
        return Err("--model and --ckpt-dir are mutually exclusive".into());
    }
    let root = PathBuf::from(a.get("ckpt-dir").expect("caller checked --ckpt-dir"));
    let log = PathBuf::from(a.get("log").ok_or(
        "serve --ckpt-dir requires --log PATH (the interaction log the versions were \
         trained from)",
    )?);
    let poll = reload_poll(a)?;
    let lv = ssdrec_stream::load_current(&log, &root)?
        .ok_or("no CURRENT version in --ckpt-dir (run `ssdrec retrain` first)")?;
    println!("loaded {} from {}", lv.meta, root.display());
    let engine = build_engine(a, lv.model.into(), lv.meta.spec.arch.max_len)?;
    let loader: Box<ModelLoader> = Box::new(move |current| {
        Ok(
            ssdrec_stream::load_newer(&log, &root, current)?.map(|newer| LoadedModel {
                model: newer.model.into(),
                version: newer.version,
            }),
        )
    });
    serve_until_shutdown(a, EngineSlot::reloadable(engine, lv.version, loader), poll)
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    if a.get("ckpt-dir").is_some() {
        return cmd_serve_stream(a);
    }
    if a.has_flag("watch-current") || a.get("reload-poll-ms").is_some() {
        return Err("--watch-current/--reload-poll-ms require serving from --ckpt-dir".into());
    }
    let kind = model_kind(a)?;
    if !matches!(kind, ModelKind::Backbone | ModelKind::SsdRec) {
        return Err(
            "serve --model serves two kinds: SSDRec (the default) and the bare backbone \
             (--baseline)"
                .into(),
        );
    }
    let prep = prepare_data(a)?;
    let ckpt = a
        .get("model")
        .ok_or("serve requires --model CKPT (train one with `ssdrec train --out ...`)")?;
    let model: InferenceModel = if kind == ModelKind::Backbone {
        let ctx = model_context(a, &prep)?;
        let mut m = SeqRec::new(ctx.backbone, ctx.num_items, ctx.dim, ctx.max_len, ctx.seed);
        load_params(&mut m.store, ckpt).map_err(|e| e.to_string())?;
        m.into()
    } else {
        let mut m = build_ssdrec(a, &prep)?;
        load_params(&mut m.store, ckpt).map_err(|e| e.to_string())?;
        m.into()
    };
    println!("loaded checkpoint {ckpt} ({})", model.model_name());
    let engine = build_engine(a, model, prep.max_len)?;
    serve_until_shutdown(a, EngineSlot::fixed(engine), None)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let known = args::option_names(usage());
    if let Some(name) = args.names().find(|n| !known.contains(n)) {
        eprintln!("error: unknown option --{name}");
        return ExitCode::from(2);
    }
    if let Err(e) = configure_threads(&args) {
        eprintln!("error: {e}\n{}", usage());
        return ExitCode::FAILURE;
    }
    // Chaos testing: SSDREC_FAULTS=site:kind:nth[,...] arms deterministic
    // fault injection across every thread, held until main returns. Unset
    // means zero overhead.
    let _faults = match ssdrec_base::faults::arm_from_env() {
        Ok(None) => None,
        Ok(Some((armed, n))) => {
            eprintln!("fault injection armed: {n} spec(s) from SSDREC_FAULTS");
            Some(armed)
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("stats") => cmd_stats(&args),
        Some("train") => cmd_train(&args),
        Some("recommend") => cmd_recommend(&args),
        Some("denoise") => cmd_denoise(&args),
        Some("serve") => cmd_serve(&args),
        Some("ingest") => cmd_ingest(&args),
        Some("retrain") => cmd_retrain(&args),
        Some("gen-data") => cmd_gen_data(&args),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string)).unwrap()
    }

    #[test]
    fn threads_flag_configures_pool_and_rejects_zero() {
        // Negative path: an explicit zero is refused with a clear message.
        let err = configure_threads(&parse("train --threads 0")).unwrap_err();
        assert!(err.contains("--threads"), "got: {err}");
        // Unparseable values are refused too.
        assert!(configure_threads(&parse("train --threads lots")).is_err());
        // Positive path: the pool is resized to the requested count, capped
        // at the host's cores.
        let want = 3.min(ssdrec_runtime::available_cores());
        assert_eq!(configure_threads(&parse("train --threads 3")), Ok(want));
        assert_eq!(ssdrec_runtime::threads(), want);
        // No flag: keeps whatever the pool already runs.
        assert_eq!(configure_threads(&parse("train")), Ok(want));
        // More threads than any host has: the cores.
        let cores = ssdrec_runtime::available_cores();
        assert_eq!(
            configure_threads(&parse("train --threads 100000")),
            Ok(cores)
        );
        ssdrec_runtime::set_threads(1);
    }

    #[test]
    fn only_the_options_the_usage_text_names_are_known() {
        let known = args::option_names(usage());
        let unknown = |line: &str| -> Vec<String> {
            let a = parse(line);
            let names = a.names().filter(|n| !known.contains(n));
            names.map(str::to_string).collect()
        };
        // The kernel-backend flag is retired: one kernel set ships.
        let retired = "backend";
        assert_eq!(unknown(&format!("train --{retired} reference")), [retired]);
        assert_eq!(unknown("train --epoch 5"), ["epoch"]);
        assert_eq!(unknown("train --epochs=5 --verbos"), ["verbos"]);
        // Every option the usage text spells is accepted, as a value and
        // as a bare flag.
        for name in &known {
            assert!(unknown(&format!("train --{name} 1")).is_empty(), "--{name}");
            assert!(unknown(&format!("train --{name}")).is_empty(), "--{name}");
        }
        // The options every command reads: the usage text names them all.
        for name in [
            "addr",
            "aug-rate",
            "backbone",
            "baseline",
            "batch-size",
            "cache",
            "checkpoint-every",
            "ckpt-dir",
            "cl-tau",
            "cl-weight",
            "contrastive",
            "data",
            "dim",
            "epochs",
            "events",
            "file",
            "format",
            "items",
            "k",
            "linger-ms",
            "log",
            "max-batch",
            "max-len",
            "max-queue",
            "mgsd",
            "model",
            "out",
            "patience",
            "profile",
            "read-timeout-ms",
            "reload-poll-ms",
            "resume",
            "scale",
            "seed",
            "state",
            "threads",
            "user",
            "users",
            "verbose",
            "watch-current",
            "workers",
            "write-timeout-ms",
        ] {
            assert!(known.contains(name), "usage text omits --{name}");
        }
        assert_eq!(known.len(), 42, "{known:?}");
    }

    #[test]
    fn scenario_flags_are_mutually_exclusive_and_validate_their_knobs() {
        let kind = |flags: &str| model_kind(&parse(flags));
        for two in [
            "train --baseline --contrastive",
            "train --baseline --mgsd",
            "train --contrastive --mgsd",
            "train --baseline --contrastive --mgsd",
        ] {
            let err = kind(two).unwrap_err();
            assert!(err.contains("mutually exclusive"), "for {two:?} got: {err}");
        }
        let tuned = ModelKind::Contrastive {
            cl_weight: 0.3,
            cl_tau: 2.0,
            aug_rate: 0.25,
        };
        for (flags, want) in [
            ("train", ModelKind::SsdRec),
            ("train --baseline", ModelKind::Backbone),
            ("train --mgsd", ModelKind::Mgsd),
            ("train --contrastive", ModelKind::CL4SREC),
            (
                "train --contrastive --cl-weight 0.3 --cl-tau 2 --aug-rate 0.25",
                tuned,
            ),
        ] {
            assert_eq!(kind(flags), Ok(want), "for {flags:?}");
        }
        for (bad, flag) in [
            ("train --contrastive --cl-weight -1", "--cl-weight"),
            ("train --contrastive --cl-tau 0", "--cl-tau"),
            ("train --contrastive --aug-rate 1.5", "--aug-rate"),
        ] {
            let err = kind(bad).unwrap_err();
            assert!(err.contains(flag), "for {bad:?} got: {err}");
        }
    }

    #[test]
    fn each_scenario_builds_the_model_train_has_always_named() {
        let a = parse("train --profile beauty --scale 0.05 --dim 8 --max-len 12");
        let prep = prepare_data(&a).unwrap();
        for (flags, name) in [
            ("train", "SSDRec[SASRec]"),
            ("train --backbone gru4rec", "SSDRec[GRU4Rec]"),
            ("train --baseline", "SASRec"),
            ("train --baseline --backbone narm", "NARM"),
            ("train --contrastive", "CL4SRec"),
            ("train --mgsd", "MGSD-WSS"),
        ] {
            let a = parse(flags);
            let model = build_model(model_kind(&a).unwrap(), &model_context(&a, &prep).unwrap());
            assert_eq!(model.model_name(), name, "for {flags:?}");
        }
    }

    #[test]
    fn recommend_loads_the_checkpoint_train_writes_for_each_scenario() {
        let data = "--profile beauty --scale 0.05 --dim 8 --max-len 12";
        let prep = prepare_data(&parse(&format!("train {data}"))).unwrap();
        let ex = &prep.split.test[0];
        let path = std::env::temp_dir().join(format!("ssdrec-cli-{}.ssdt", std::process::id()));
        let ckpt = path.to_str().unwrap();
        for flags in ["", "--baseline", "--contrastive", "--mgsd"] {
            let train = parse(&format!("train {data} {flags}"));
            let trained = build_model(
                model_kind(&train).unwrap(),
                &model_context(&train, &prep).unwrap(),
            );
            save_params(trained.store(), ckpt).unwrap();
            let recommend = parse(&format!("recommend {data} {flags} --model {ckpt}"));
            let model = load_trained_model(&recommend, &prep, ckpt)
                .unwrap_or_else(|e| panic!("for {flags:?}: {e}"));
            assert_eq!(model.model_name(), trained.model_name());
            assert_eq!(
                model.recommend(ex.user, &ex.seq, 5).len(),
                5,
                "for {flags:?}"
            );
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn serve_refuses_the_kinds_it_cannot_serve_before_loading() {
        // `--model` names no file: the refusal comes before any load.
        for flags in ["--contrastive", "--mgsd"] {
            let err =
                cmd_serve(&parse(&format!("serve {flags} --model missing.ssdt"))).unwrap_err();
            assert_eq!(
                err,
                "serve --model serves two kinds: SSDRec (the default) and the bare backbone \
                 (--baseline)",
                "for {flags:?}"
            );
        }
        let err = cmd_serve(&parse("serve --baseline --mgsd --model missing.ssdt")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "got: {err}");
    }

    #[test]
    fn unknown_profile_format_and_backbone_keep_their_error_text() {
        let err = load_dataset(&parse("stats --profile imaginary")).unwrap_err();
        assert_eq!(err, "unknown --profile imaginary");
        let err = cmd_gen_data(&parse("gen-data --out x.ssdc --profile imaginary")).unwrap_err();
        assert_eq!(err, "unknown --profile imaginary");
        let err = load_dataset(&parse("stats --file x.csv --format parquet")).unwrap_err();
        assert_eq!(err, "unknown --format parquet");
        let err =
            cmd_gen_data(&parse("gen-data --out x.ssdc --file x --format parquet")).unwrap_err();
        assert_eq!(err, "unknown --format parquet");
        let err = backbone(&parse("train --backbone lstm")).unwrap_err();
        assert_eq!(err, "unknown --backbone lstm");
    }

    #[test]
    fn events_list_parses_and_rejects_malformed_pairs() {
        assert_eq!(
            parse_events("0:1,2:3, 4 : 5 ,").unwrap(),
            vec![(0, 1), (2, 3), (4, 5)]
        );
        assert_eq!(parse_events("").unwrap(), vec![]);
        // No colon, bad user, bad item — each names the offending pair.
        for bad in ["7", "x:1", "1:y", "1:2:3"] {
            let err = parse_events(bad).unwrap_err();
            assert!(err.contains("--events"), "for {bad:?} got: {err}");
        }
    }

    #[test]
    fn ingest_catalog_flags_must_come_together_and_be_positive() {
        assert_eq!(explicit_catalog(&parse("ingest")).unwrap(), None);
        let h = explicit_catalog(&parse("ingest --users 10 --items 20"))
            .unwrap()
            .unwrap();
        assert_eq!((h.num_users, h.num_items), (10, 20));
        let err = explicit_catalog(&parse("ingest --users 10")).unwrap_err();
        assert!(err.contains("together"), "got: {err}");
        let err = explicit_catalog(&parse("ingest --users 0 --items 5")).unwrap_err();
        assert!(err.contains("≥ 1"), "got: {err}");
        assert!(explicit_catalog(&parse("ingest --users x --items 5")).is_err());
    }

    #[test]
    fn retrain_spec_rejects_zero_epochs_and_defaults_match_train() {
        let err = retrain_spec(&parse("retrain --epochs 0")).unwrap_err();
        assert!(err.contains("--epochs"), "got: {err}");
        assert!(retrain_spec(&parse("retrain --epochs some")).is_err());
        let spec = retrain_spec(&parse("retrain")).unwrap();
        assert_eq!(spec.epochs, 1);
        assert_eq!(spec.arch.dim, 16);
        assert_eq!(spec.arch.max_len, 50);
        assert_eq!(spec.batch_size, 64);
        // Float knobs inherit the trainer defaults bit-for-bit.
        assert_eq!(spec.lr.to_bits(), TrainConfig::default().lr.to_bits());
        let spec = retrain_spec(&parse("retrain --epochs 3 --dim 8 --backbone narm")).unwrap();
        assert_eq!((spec.epochs, spec.arch.dim), (3, 8));
        assert_eq!(spec.arch.backbone, BackboneKind::Narm);
    }

    #[test]
    fn reload_flags_reject_contradictions() {
        // No watch: no polling, and a poll interval alone is refused.
        assert_eq!(reload_poll(&parse("serve")).unwrap(), None);
        let err = reload_poll(&parse("serve --reload-poll-ms 100")).unwrap_err();
        assert!(err.contains("--watch-current"), "got: {err}");
        // Watching polls at the default, or the explicit interval.
        assert_eq!(
            reload_poll(&parse("serve --watch-current")).unwrap(),
            Some(Duration::from_millis(500))
        );
        assert_eq!(
            reload_poll(&parse("serve --watch-current --reload-poll-ms 50")).unwrap(),
            Some(Duration::from_millis(50))
        );
        // A zero interval is a busy-loop request, not a config.
        let err = reload_poll(&parse("serve --watch-current --reload-poll-ms 0")).unwrap_err();
        assert!(err.contains("≥ 1"), "got: {err}");
        assert!(reload_poll(&parse("serve --watch-current --reload-poll-ms fast")).is_err());
    }
}
