//! `probe_train` — where a training step's time goes, on `train_ssdrec`'s
//! inputs. A hand-rolled copy of the trainer's loop (the same public calls
//! in the same order) with a span around each phase, then the plain
//! `train` on the same inputs: both must end on the same loss bits and the
//! same test HR@10, and the difference in their wall time is what the
//! spans themselves cost.

use std::time::Instant;

use ssdrec_benchmark_driver::sizes::number;
use ssdrec_benchmark_probes::{median, prepared, ssdrec_model, Probe};
use ssdrec_core::SsdRec;
use ssdrec_data::{make_batches, prepare, BatchSource, Example};
use ssdrec_metrics::{rank_rows, RankingAccumulator};
use ssdrec_models::{train, RecModel, TrainConfig};
use ssdrec_tensor::{pool, Adam, Gradients, Graph, Rng};

const MAX_LEN: usize = 50;

/// Per-phase times of the instrumented loop, ms per call.
#[derive(Default)]
struct Phases {
    reset_bind: Vec<f64>,
    loss_forward: Vec<f64>,
    backward: Vec<f64>,
    optim: Vec<f64>,
    step: Vec<f64>,
    eval_forward: Vec<f64>,
    rank_rows: Vec<f64>,
}

/// The trainer's evaluation pass with a span around the forward and the
/// ranking of each batch.
fn evaluate_spanned(
    p: &Probe,
    parent: u64,
    model: &SsdRec,
    examples: &[Example],
    batch_size: usize,
    g: &mut Graph,
    phases: &mut Phases,
) -> RankingAccumulator {
    let mut acc = RankingAccumulator::new();
    (&examples).for_each_batch(batch_size, 0, &mut |batch| {
        let (scores, ms) = p.timed("models.eval_forward", parent, |_| {
            g.reset();
            let bind = model.store().bind_all(g);
            model.eval_scores(g, &bind, batch)
        });
        phases.eval_forward.push(ms);
        let sv = g.value(scores);
        let width = sv.shape()[1];
        let (ranks, ms) = p.timed("metrics.rank_rows", parent, |_| {
            rank_rows(sv.data(), width, &batch.targets)
        });
        phases.rank_rows.push(ms);
        for rank in ranks {
            acc.push_rank(rank);
        }
    });
    acc
}

fn main() {
    let mut p = Probe::start("probe_train");
    let sz = p.sizes;
    let dim = number(sz.train_dim) as usize;
    let cfg = TrainConfig {
        epochs: sz.train_epochs,
        batch_size: 64,
        patience: 5,
        seed: p.seed,
        ..TrainConfig::default()
    };

    // data: generate + 5-core filter + truncate + leave-one-out split.
    let prepare_ms = p.median_ms("data.prepare", p.reps(3), || {
        let raw = ssdrec_benchmark_probes::beauty(sz.train_scale, p.seed);
        std::hint::black_box(prepare(&raw, MAX_LEN, 3));
    });
    let prep = prepared(sz.train_scale, p.seed, MAX_LEN);
    let train_examples: &[Example] = &prep.split.train;
    // One epoch's batches: the in-RAM source builds them all up front.
    let batch_ms = p.median_ms("data.batch_ram", p.reps(30), || {
        std::hint::black_box(make_batches(train_examples, cfg.batch_size, cfg.seed));
    });

    // The instrumented loop: `train_from_source`, phase by phase.
    let mut model = ssdrec_model(&prep.graph, dim, MAX_LEN, p.seed);
    let mut phases = Phases::default();
    let pool_before = pool::local_stats();
    let instrumented = Instant::now();
    let (final_loss, hr10) = p
        .timed("train.instrumented", p.root(), |run| {
            let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
            let mut rng = Rng::seed(cfg.seed);
            let mut best_hr20 = f64::NEG_INFINITY;
            let mut best_snapshot = model.store().snapshot();
            let mut since_best = 0usize;
            let mut final_loss = f32::NAN;
            let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
            let mut ws = Gradients::new();
            for epoch in 0..cfg.epochs {
                model.on_epoch_start(epoch, cfg.epochs);
                let (mut epoch_loss, mut nb) = (0.0f32, 0usize);
                (&train_examples).for_each_batch(
                    cfg.batch_size,
                    cfg.seed.wrapping_add(epoch as u64),
                    &mut |batch| {
                        let (_, step_ms) = p.timed("models.step", run, |step| {
                            let (bind, ms) = p.timed("tensor.reset_bind", step, |_| {
                                g.reset();
                                model.store().bind_all(&mut g)
                            });
                            phases.reset_bind.push(ms);
                            let (loss, ms) = p.timed("models.loss_forward", step, |_| {
                                model.loss(&mut g, &bind, batch, &mut rng)
                            });
                            phases.loss_forward.push(ms);
                            let lv = g.value(loss).item();
                            if lv.is_finite() {
                                epoch_loss += lv;
                                nb += 1;
                                let ((), ms) = p.timed("tensor.backward", step, |_| {
                                    g.backward_into(loss, &mut ws)
                                });
                                phases.backward.push(ms);
                                let ((), ms) = p.timed("tensor.optim", step, |_| {
                                    opt.lr = cfg.lr * cfg.lr_schedule.factor(opt.steps() + 1);
                                    opt.step(model.store_mut(), &bind, &mut ws);
                                });
                                phases.optim.push(ms);
                            }
                            model.after_step();
                        });
                        phases.step.push(step_ms);
                    },
                );
                final_loss = if nb > 0 {
                    epoch_loss / nb as f32
                } else {
                    f32::NAN
                };
                let vacc = evaluate_spanned(
                    &p,
                    run,
                    &model,
                    &prep.split.valid,
                    cfg.batch_size,
                    &mut g,
                    &mut phases,
                );
                let hr20 = vacc.hr(20);
                if hr20 > best_hr20 {
                    best_hr20 = hr20;
                    best_snapshot = model.store().snapshot();
                    since_best = 0;
                } else {
                    since_best += 1;
                }
                if since_best > 0 && since_best >= cfg.patience {
                    break;
                }
            }
            model.store_mut().restore(&best_snapshot);
            let tacc = evaluate_spanned(
                &p,
                run,
                &model,
                &prep.split.test,
                cfg.batch_size,
                &mut g,
                &mut phases,
            );
            (final_loss, tacc.hr(10))
        })
        .0;
    let instrumented_s = instrumented.elapsed().as_secs_f64();
    let pool_used = pool::local_stats().since(&pool_before);

    // The plain trainer on the same inputs.
    let mut plain_model = ssdrec_model(&prep.graph, dim, MAX_LEN, p.seed);
    let (report, plain_ms) = p.timed("train.plain", p.root(), |_| {
        train(&mut plain_model, &prep.split, &cfg)
    });
    assert_eq!(
        final_loss.to_bits(),
        report.final_loss.to_bits(),
        "the instrumented loop ended on loss {final_loss}, `train` on {}",
        report.final_loss
    );
    assert_eq!(
        hr10.to_bits(),
        report.test.hr10.to_bits(),
        "the instrumented loop and `train` disagree on test HR@10"
    );

    let parts = median(&phases.reset_bind)
        + median(&phases.loss_forward)
        + median(&phases.backward)
        + median(&phases.optim);
    p.note(format!(
        "{} items, {} train examples, {} steps over {} epochs; final loss bits {:#010x} match `train`",
        prep.dataset.num_items,
        train_examples.len(),
        phases.step.len(),
        cfg.epochs,
        final_loss.to_bits()
    ));
    p.metric("data.prepare_ms", prepare_ms, "ms");
    p.metric("data.batch_ram_ms", batch_ms, "ms");
    p.metric("tensor.reset_bind_ms", median(&phases.reset_bind), "ms");
    p.metric("models.loss_forward_ms", median(&phases.loss_forward), "ms");
    p.metric("tensor.backward_ms", median(&phases.backward), "ms");
    p.metric("tensor.optim_ms", median(&phases.optim), "ms");
    p.metric("models.step_ms", median(&phases.step), "ms");
    p.metric("probe.step_coverage", parts / median(&phases.step), "ratio");
    p.metric("models.eval_forward_ms", median(&phases.eval_forward), "ms");
    p.metric("metrics.rank_rows_ms", median(&phases.rank_rows), "ms");
    p.metric("tensor.pool_hit_rate", pool_used.hit_rate(), "ratio");
    p.metric("metrics.hr_at_10", hr10, "ratio");
    p.metric(
        "probe.train_overhead_frac",
        (instrumented_s - plain_ms / 1e3) / (plain_ms / 1e3),
        "ratio",
    );
    p.finish();
}
