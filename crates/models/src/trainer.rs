//! Shared training loop: Adam, full-catalogue cross-entropy, early stopping
//! on validation HR@20 with patience (paper §IV-A3), and timed evaluation.

use std::time::Instant;

use ssdrec_data::{plan_batches, Batch, BatchSource, Example, Split, StoreExamples};
use ssdrec_metrics::{par_top_k, rank_rows, RankingAccumulator};
use ssdrec_tensor::{Adam, Binding, Gradients, Graph, Rng, Var};

use crate::checkpoint::{self, CheckpointConfig, TrainState};
use crate::model::RecModel;

/// Learning-rate schedule applied on top of the base rate.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LrSchedule {
    /// Constant learning rate (the paper's setting).
    #[default]
    Constant,
    /// Linear warm-up from 0 to the base rate over the first `warmup_steps`
    /// optimisation steps, then constant. Stabilises the first updates of
    /// the deeper SSDRec stack.
    WarmupLinear {
        /// Steps to reach the base rate.
        warmup_steps: u64,
    },
}

impl LrSchedule {
    /// The multiplier to apply to the base learning rate at `step` (1-based).
    pub fn factor(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::WarmupLinear { warmup_steps } => {
                if warmup_steps == 0 {
                    1.0
                } else {
                    (step as f32 / warmup_steps as f32).min(1.0)
                }
            }
        }
    }
}

/// Training hyper-parameters (defaults follow the paper where feasible).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 256; scaled-down default here).
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// L2 regularisation coefficient (paper searches {0, 1e-3, 1e-4}).
    pub weight_decay: f32,
    /// Early-stopping patience in epochs on validation HR@20 (paper: 10).
    pub patience: usize,
    /// RNG seed for shuffling/dropout.
    pub seed: u64,
    /// Print a one-line log per epoch.
    pub verbose: bool,
    /// Learning-rate schedule.
    pub lr_schedule: LrSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 1e-3,
            weight_decay: 0.0,
            patience: 10,
            seed: 7,
            verbose: false,
            lr_schedule: LrSchedule::default(),
        }
    }
}

/// What the trainer measured.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Epochs actually run (≤ `epochs` under early stopping).
    pub epochs_run: usize,
    /// Best validation metrics (the restored checkpoint).
    pub valid: ssdrec_metrics::MetricReport,
    /// Test metrics of the restored best checkpoint.
    pub test: ssdrec_metrics::MetricReport,
    /// Per-example test ranks (for significance testing).
    pub test_ranks: Vec<usize>,
    /// Mean wall-clock seconds per training epoch (Table VI "Training").
    pub train_secs_per_epoch: f64,
    /// Wall-clock seconds for one full test inference pass (Table VI).
    pub infer_secs: f64,
    /// Final training loss: the last epoch's mean over its finite-loss
    /// steps (NaN when that epoch had none).
    pub final_loss: f32,
    /// Steps skipped because their loss was not finite, counted over the
    /// epochs this call ran (a resumed run does not see the earlier ones:
    /// the checkpoint format is pinned and carries no such counter).
    pub skipped_steps: usize,
}

/// Why [`fit`] returned no [`TrainReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum TrainError {
    /// Every step of `epoch` had a non-finite loss, so none of them updated
    /// the model: the run has diverged, and its report could only carry a
    /// NaN `final_loss`.
    NonFiniteEpoch {
        /// The epoch, counted from 0 as the run's log lines count it.
        epoch: usize,
        /// How many steps it skipped (all of them).
        steps: usize,
    },
    /// Resuming, warm-starting or checkpointing failed, or an injected
    /// fault fired; the message names the file.
    State(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteEpoch { epoch, steps } => write!(
                f,
                "epoch {epoch}: all {steps} step(s) had a non-finite loss; training diverged"
            ),
            TrainError::State(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<String> for TrainError {
    fn from(msg: String) -> Self {
        TrainError::State(msg)
    }
}

impl From<TrainError> for String {
    fn from(e: TrainError) -> Self {
        e.to_string()
    }
}

/// Evaluate a model on a set of examples, returning the rank accumulator.
///
/// Convenience wrapper over [`evaluate_with`] that owns a throwaway graph;
/// step loops that already hold a long-lived graph should pass it to
/// [`evaluate_with`] so the tape storage is reused.
pub fn evaluate<M: RecModel + ?Sized>(
    model: &M,
    examples: &[Example],
    batch_size: usize,
) -> RankingAccumulator {
    evaluate_with(model, &examples, batch_size, &mut Graph::new())
}

/// Evaluate a model over any [`BatchSource`] — owned examples or an
/// out-of-core store + split plan — using a caller-provided graph. Batches
/// (and hence the accumulator) are bit-identical across sources for the
/// same examples.
///
/// One [`FrozenPass`] over the source: each batch's
/// [`RecModel::eval_scores_frozen`] nodes are ranked and
/// [`truncate`](Graph::truncate)d away, their storage recycled through the
/// buffer pool — the two calls a serving engine makes. Scores are
/// bit-identical to a fresh graph and a whole [`RecModel::eval_scores`] per
/// batch.
pub fn evaluate_with<M: RecModel + ?Sized>(
    model: &M,
    source: &dyn BatchSource,
    batch_size: usize,
    g: &mut Graph,
) -> RankingAccumulator {
    let mut acc = RankingAccumulator::new();
    let mut pass = FrozenPass::new(model, g);
    source.for_each_batch(batch_size, 0, &mut |batch| {
        pass.run(|g, bind, frozen| {
            let scores = model.eval_scores_frozen(g, bind, batch, frozen);
            let sv = g.value(scores);
            // Rank the whole batch on the runtime pool; row order (and
            // hence the accumulator contents) matches the per-row loop.
            for rank in rank_rows(sv.data(), sv.shape()[1], &batch.targets) {
                acc.push_rank(rank);
            }
        })
    });
    acc
}

/// The one frozen eval forward outside training and serving: the
/// parameters bound and [`RecModel::precompute_frozen`] run once on a graph,
/// below a [`Graph::mark`]; every [`FrozenPass::run`] then starts from a
/// graph [`truncate`](Graph::truncate)d back to that mark. Evaluation,
/// batched analysis ([`per_example`]) and SSDRec's case-study traces all
/// run on it, so stage 1 runs once per pass, not once per batch or example.
pub struct FrozenPass<'g> {
    g: &'g mut Graph,
    bind: Binding,
    frozen: Vec<Var>,
    mark: usize,
}

impl<'g> FrozenPass<'g> {
    /// Reset `g`, bind `model`'s parameters and freeze its tables.
    pub fn new<M: RecModel + ?Sized>(model: &M, g: &'g mut Graph) -> Self {
        g.reset();
        let bind = model.store().bind_all(g);
        let frozen = model.precompute_frozen(g, &bind);
        let mark = g.mark();
        FrozenPass {
            g,
            bind,
            frozen,
            mark,
        }
    }

    /// Run `f` on the graph truncated back to the frozen mark, with the
    /// binding and what [`RecModel::precompute_frozen`] returned.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut Graph, &Binding, &[Var]) -> R) -> R {
        self.g.truncate(self.mark);
        f(self.g, &self.bind, &self.frozen)
    }
}

/// Examples per batch of a [`per_example`] pass. Every kernel on the eval
/// path is row-independent, so no output depends on it.
const ANALYSIS_BATCH: usize = 256;

/// One value per example, **in `examples` order**, from one [`FrozenPass`]
/// over length-bucketed batches: `rows` maps a batch to one value per batch
/// row, and each row lands at its example's index (recovered from
/// [`plan_batches`]' `idxs`). An empty history is never batched and gets
/// `R::default()`.
pub fn per_example<M, R, F>(model: &M, examples: &[Example], mut rows: F) -> Vec<R>
where
    M: RecModel + ?Sized,
    R: Default,
    F: FnMut(&mut Graph, &Binding, &Batch, &[Var]) -> Vec<R>,
{
    let lengths: Vec<usize> = examples.iter().map(|e| e.seq.len()).collect();
    // `make_batches` plans with the same (lengths, batch size, seed), so
    // the k-th batch holds the k-th plan's examples in its row order.
    let mut plans = plan_batches(&lengths, ANALYSIS_BATCH, 0).into_iter();
    let mut out: Vec<R> = examples.iter().map(|_| R::default()).collect();
    let mut g = Graph::new();
    let mut pass = FrozenPass::new(model, &mut g);
    examples.for_each_batch(ANALYSIS_BATCH, 0, &mut |batch| {
        let plan = plans.next().expect("one plan per batch");
        let values = pass.run(|g, bind, frozen| rows(g, bind, batch, frozen));
        assert_eq!(values.len(), plan.idxs.len(), "one value per batch row");
        for (i, v) in plan.idxs.into_iter().zip(values) {
            out[i] = v;
        }
    });
    out
}

/// The top-`k` `(item, score)` list of every example, in `examples` order:
/// one [`per_example`] pass of [`RecModel::eval_scores_frozen`] with the
/// serving engine's partial select per row (the pad item is never returned;
/// ties break to the lower item ID). An empty history gets an empty list.
pub fn recommend_each<M: RecModel + ?Sized>(
    model: &M,
    examples: &[Example],
    k: usize,
) -> Vec<Vec<(usize, f32)>> {
    per_example(model, examples, |g, bind, batch, frozen| {
        let scores = model.eval_scores_frozen(g, bind, batch, frozen);
        let sv = g.value(scores);
        sv.data()
            .chunks(sv.shape()[1])
            .map(|row| par_top_k(row, k))
            .collect()
    })
}

/// Train a model with Adam + early stopping; restores the best checkpoint
/// before the final test evaluation.
///
/// Convenience over [`fit`] for an owned [`Split`] with default
/// [`TrainOptions`] (no warm start, no checkpointing, so no I/O can fail).
///
/// # Panics
/// If training diverges: an epoch whose every step had a non-finite loss
/// ([`TrainError::NonFiniteEpoch`]).
pub fn train<M: RecModel + ?Sized>(model: &mut M, split: &Split, cfg: &TrainConfig) -> TrainReport {
    fit(model, &split.into(), cfg, &TrainOptions::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// A train/valid/test triple of [`BatchSource`]s. `(&split).into()` borrows
/// the three example vectors of an in-RAM [`Split`]; `(&views).into()`
/// borrows the [`StoreExamples`] views of a
/// [`SplitPlan`](ssdrec_data::SplitPlan) over a columnar store
/// (out-of-core).
pub struct SourceSplit<'a> {
    /// Training examples.
    pub train: &'a dyn BatchSource,
    /// Validation examples (early stopping).
    pub valid: &'a dyn BatchSource,
    /// Test examples.
    pub test: &'a dyn BatchSource,
}

impl<'a> From<&'a Split> for SourceSplit<'a> {
    fn from(split: &'a Split) -> Self {
        SourceSplit {
            train: &split.train,
            valid: &split.valid,
            test: &split.test,
        }
    }
}

impl<'a> From<&'a [StoreExamples<'a>; 3]> for SourceSplit<'a> {
    fn from([train, valid, test]: &'a [StoreExamples<'a>; 3]) -> Self {
        SourceSplit { train, valid, test }
    }
}

/// What [`fit`] takes beyond the data and the hyper-parameters.
#[derive(Clone, Copy, Default)]
pub struct TrainOptions<'a> {
    /// Warm-start from a prior run's [`TrainState`] — the input of
    /// `ssdrec-stream`'s warm-started full retrain.
    ///
    /// A warm start restores the *optimizer trajectory* (parameter values,
    /// Adam moments and step count, raw RNG stream, model-side state) of the
    /// prior run but starts fresh epoch/early-stopping counters: the loop
    /// runs `cfg.epochs` epochs from epoch 0. This differs from
    /// `ckpt.resume`, which continues the *same* run's epoch schedule.
    pub warm: Option<&'a TrainState>,
    /// Periodic checkpointing and resume.
    ///
    /// The full trainer state (parameters, Adam moments and step count, RNG
    /// stream, epoch/patience counters, best snapshot) is written atomically
    /// to `ckpt.path` every `ckpt.every` epochs and when training stops.
    /// With `ckpt.resume` and an existing state file, training restarts from
    /// the recorded epoch and the remainder of the run is **bit-identical**
    /// to one that was never interrupted (enforced by `tests/chaos.rs` and
    /// `tests/thread_determinism.rs`). That state wins over `warm`: a killed
    /// warm-started run resumes from its own work checkpoint (which already
    /// embeds the warm start).
    pub ckpt: Option<&'a CheckpointConfig>,
}

impl<'a> TrainOptions<'a> {
    /// Checkpoint (and, if `ckpt.resume`, resume) as `ckpt` says; no warm
    /// start.
    pub fn checkpointed(ckpt: &'a CheckpointConfig) -> Self {
        TrainOptions {
            warm: None,
            ckpt: Some(ckpt),
        }
    }
}

/// The trainer: the one function in the workspace that holds the epoch
/// loop. Every model, in RAM or straight off a columnar `.ssdc` file with
/// bounded RAM, trains through here; for the same underlying examples the
/// two kinds of source are **bit-identical** — same batch plans, same RNG
/// stream, same checkpoint bytes (`crates/data/tests/prop_columnar.rs` and
/// the golden-determinism suite pin this).
///
/// A step whose loss is not finite is skipped — no backward pass, no
/// optimizer update — and counted in [`TrainReport::skipped_steps`]. An
/// epoch that skips every one of its steps ends the run with
/// [`TrainError::NonFiniteEpoch`].
///
/// Fault sites: `ckpt.save` (inside the atomic write) and `train.epoch`
/// (after each periodic save — arming a `panic` there simulates a kill).
pub fn fit<M: RecModel + ?Sized>(
    model: &mut M,
    split: &SourceSplit<'_>,
    cfg: &TrainConfig,
    opts: &TrainOptions<'_>,
) -> Result<TrainReport, TrainError> {
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut rng = Rng::seed(cfg.seed);

    let mut best_hr20 = f64::NEG_INFINITY;
    let mut best_snapshot = model.store().snapshot();
    let mut best_valid = ssdrec_metrics::MetricReport::default();
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    let mut total_train_secs = 0.0f64;
    let mut final_loss = f32::NAN;
    let mut skipped_steps = 0usize;
    let mut start_epoch = 0usize;

    let resume_from = opts.ckpt.filter(|c| c.resume && c.path.exists());
    if let Some(c) = resume_from {
        let st = checkpoint::load_train_state(&c.path)
            .map_err(|e| format!("resume from {}: {e}", c.path.display()))?;
        st.apply_to(model)
            .map_err(|e| format!("resume from {}: {e}", c.path.display()))?;
        opt.set_steps(st.adam_steps);
        rng = Rng::from_state(st.rng_state);
        best_hr20 = st.best_hr20;
        best_valid = st.best_valid;
        best_snapshot = st.best_snapshot;
        since_best = st.since_best as usize;
        total_train_secs = st.total_train_secs;
        final_loss = st.final_loss;
        start_epoch = st.next_epoch as usize;
        epochs_run = start_epoch;
        if cfg.verbose {
            eprintln!(
                "[{}] resumed from {} at epoch {start_epoch}",
                model.model_name(),
                c.path.display()
            );
        }
    } else if let Some(w) = opts.warm {
        w.apply_to(model).map_err(|e| format!("warm start: {e}"))?;
        opt.set_steps(w.adam_steps);
        rng = Rng::from_state(w.rng_state);
        // The early-stopping baseline is the warm-started parameters, not
        // the random init captured above.
        best_snapshot = model.store().snapshot();
    }

    // One graph and one gradient workspace for the whole run: each step
    // resets the tape (recycling its buffers through the pool) instead of
    // allocating a new one, and backward writes into the same workspace.
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();

    for epoch in start_epoch..cfg.epochs {
        epochs_run = epoch + 1;
        model.on_epoch_start(epoch, cfg.epochs);
        let t0 = Instant::now();
        let mut epoch_loss = 0.0f32;
        let (mut nb, mut skipped) = (0usize, 0usize);
        split.train.for_each_batch(
            cfg.batch_size,
            cfg.seed.wrapping_add(epoch as u64),
            &mut |batch| {
                g.reset();
                let bind = model.store().bind_all(&mut g);
                let loss = model.loss(&mut g, &bind, batch, &mut rng);
                let lv = g.value(loss).item();
                if lv.is_finite() {
                    epoch_loss += lv;
                    nb += 1;
                    g.backward_into(loss, &mut ws);
                    opt.lr = cfg.lr * cfg.lr_schedule.factor(opt.steps() + 1);
                    opt.step(model.store_mut(), &bind, &mut ws);
                } else {
                    skipped += 1;
                }
                model.after_step();
            },
        );
        total_train_secs += t0.elapsed().as_secs_f64();
        if nb == 0 && skipped > 0 {
            return Err(TrainError::NonFiniteEpoch {
                epoch,
                steps: skipped,
            });
        }
        skipped_steps += skipped;
        final_loss = if nb > 0 {
            epoch_loss / nb as f32
        } else {
            f32::NAN
        };

        let vacc = evaluate_with(model, split.valid, cfg.batch_size, &mut g);
        let hr20 = vacc.hr(20);
        if cfg.verbose {
            let skipped_note = match skipped {
                0 => String::new(),
                n => format!(", skipped {n} non-finite step(s)"),
            };
            eprintln!(
                "[{}] epoch {epoch}: loss {final_loss:.4}, valid HR@20 {hr20:.4}{skipped_note}",
                model.model_name()
            );
        }
        if hr20 > best_hr20 {
            best_hr20 = hr20;
            best_snapshot = model.store().snapshot();
            best_valid = vacc.report();
            since_best = 0;
        } else {
            since_best += 1;
        }
        let stopping = since_best > 0 && since_best >= cfg.patience;

        if let Some(c) = opts.ckpt {
            let every = c.every.max(1);
            let done = epoch + 1;
            if done % every == 0 || stopping || done == cfg.epochs {
                let st = checkpoint::TrainState {
                    next_epoch: done as u32,
                    since_best: since_best as u32,
                    adam_steps: opt.steps(),
                    rng_state: rng.state(),
                    best_hr20,
                    total_train_secs,
                    final_loss,
                    best_valid: best_valid.clone(),
                    model_state: model.train_state(),
                    params: checkpoint::TrainState::capture_params(model),
                    best_snapshot: best_snapshot.clone(),
                };
                checkpoint::save_train_state(&st, &c.path)
                    .map_err(|e| format!("checkpoint to {}: {e}", c.path.display()))?;
                // Kill-simulation hook: arming `train.epoch:panic:N` aborts
                // the run right after the Nth save, exactly like a crash
                // between epochs; an `error` kind surfaces as Err instead.
                ssdrec_base::faults::point("train.epoch").map_err(|e| e.to_string())?;
            }
        }

        if stopping {
            break;
        }
    }

    model.store_mut().restore(&best_snapshot);

    let t0 = Instant::now();
    let tacc = evaluate_with(model, split.test, cfg.batch_size, &mut g);
    let infer_secs = t0.elapsed().as_secs_f64();

    Ok(TrainReport {
        epochs_run,
        valid: best_valid,
        test: tacc.report(),
        test_ranks: tacc.ranks().to_vec(),
        train_secs_per_epoch: if epochs_run > 0 {
            total_train_secs / epochs_run as f64
        } else {
            0.0
        },
        infer_secs,
        final_loss,
        skipped_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BackboneKind;
    use crate::model::SeqRec;
    use ssdrec_data::{prepare, SyntheticConfig};

    /// `(num_items, split)` of the beauty profile at `scale`.
    fn split_at(scale: f64, seed: u64) -> (usize, Split) {
        let ds = SyntheticConfig::beauty()
            .scaled(scale)
            .with_seed(seed)
            .generate();
        let (filtered, split) = prepare(&ds, 50, 2);
        (filtered.num_items, split)
    }

    // Large enough that "beats random" has real margin: at tiny scales
    // random HR@20 approaches 1 and the assertion measures only noise.
    fn small_split() -> (usize, Split) {
        split_at(0.3, 3)
    }

    fn config(epochs: usize, patience: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 32,
            patience,
            ..TrainConfig::default()
        }
    }

    /// A GRU4Rec whose every training loss is NaN.
    struct Diverged(SeqRec);

    impl RecModel for Diverged {
        fn store(&self) -> &ssdrec_tensor::ParamStore {
            self.0.store()
        }
        fn store_mut(&mut self) -> &mut ssdrec_tensor::ParamStore {
            self.0.store_mut()
        }
        fn loss(
            &self,
            g: &mut Graph,
            bind: &ssdrec_tensor::Binding,
            batch: &ssdrec_data::Batch,
            rng: &mut Rng,
        ) -> ssdrec_tensor::Var {
            let loss = self.0.loss(g, bind, batch, rng);
            g.scale(loss, f32::NAN)
        }
        fn precompute_frozen(
            &self,
            g: &mut Graph,
            bind: &ssdrec_tensor::Binding,
        ) -> Vec<ssdrec_tensor::Var> {
            self.0.precompute_frozen(g, bind)
        }
        fn eval_scores_frozen(
            &self,
            g: &mut Graph,
            bind: &ssdrec_tensor::Binding,
            batch: &ssdrec_data::Batch,
            frozen: &[ssdrec_tensor::Var],
        ) -> ssdrec_tensor::Var {
            self.0.eval_scores_frozen(g, bind, batch, frozen)
        }
        fn model_name(&self) -> String {
            "diverged".into()
        }
    }

    #[test]
    fn an_all_non_finite_epoch_is_an_error_naming_it() {
        let (num_items, split) = split_at(0.05, 3);
        let mut model = Diverged(SeqRec::new(BackboneKind::Gru4Rec, num_items, 8, 20, 0));
        let err = fit(
            &mut model,
            &(&split).into(),
            &config(3, 3),
            &TrainOptions::default(),
        )
        .expect_err("a run whose every loss is NaN must not report");
        let TrainError::NonFiniteEpoch { epoch, steps } = err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(epoch, 0);
        assert!(steps > 0);
        assert!(err.to_string().starts_with("epoch 0: all"), "{err}");
    }

    #[test]
    fn training_reduces_loss_and_beats_random() {
        let (num_items, split) = small_split();
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, num_items, 16, 50, 0);
        let report = train(&mut model, &split, &config(10, 10));
        assert!(report.final_loss.is_finite());
        assert_eq!(report.skipped_steps, 0);
        // Random ranking would give HR@20 ≈ 20 / num_items.
        let random_hr = 20.0 / num_items as f64;
        assert!(
            report.test.hr20 > random_hr,
            "HR@20 {} not above random {}",
            report.test.hr20,
            random_hr
        );
    }

    #[test]
    fn early_stopping_restores_best() {
        let (num_items, split) = small_split();
        let mut model = SeqRec::new(BackboneKind::Stamp, num_items, 8, 50, 1);
        let report = train(&mut model, &split, &config(3, 1));
        // Restored model must reproduce the reported valid metrics.
        let vacc = evaluate(&model, &split.valid, 32);
        assert!((vacc.hr(20) - report.valid.hr20).abs() < 1e-9);
    }

    #[test]
    fn report_times_are_positive() {
        let (num_items, split) = small_split();
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, num_items, 8, 50, 2);
        let report = train(&mut model, &split, &config(1, 10));
        assert!(report.train_secs_per_epoch > 0.0);
        assert!(report.infer_secs > 0.0);
        assert_eq!(report.epochs_run, 1);
    }

    #[test]
    fn warmup_factor_ramps_then_saturates() {
        let s = LrSchedule::WarmupLinear { warmup_steps: 10 };
        assert!((s.factor(1) - 0.1).abs() < 1e-6);
        assert!((s.factor(5) - 0.5).abs() < 1e-6);
        assert_eq!(s.factor(10), 1.0);
        assert_eq!(s.factor(1000), 1.0);
    }

    #[test]
    fn constant_and_zero_warmup_are_identity() {
        assert_eq!(LrSchedule::Constant.factor(1), 1.0);
        assert_eq!(LrSchedule::WarmupLinear { warmup_steps: 0 }.factor(1), 1.0);
    }

    #[test]
    fn warmup_training_runs() {
        let (num_items, split) = split_at(0.1, 9);
        let mut model = SeqRec::new(BackboneKind::Gru4Rec, num_items, 8, 50, 0);
        let cfg = TrainConfig {
            lr_schedule: LrSchedule::WarmupLinear { warmup_steps: 5 },
            ..config(2, 10)
        };
        let report = train(&mut model, &split, &cfg);
        assert!(report.final_loss.is_finite());
    }
}
