//! Integration tests for the denoising baselines: each must train through
//! the shared trainer, emit valid keep decisions, and honour its
//! implicit/explicit nature. The weak-supervision test at the bottom pins
//! how much of the generator's injected noise MGSD-WSS must recover.

mod common;

use common::train_config;
use ssdrec::core::{build_model, ModelKind, Prepared};
use ssdrec::data::{inject_unobserved, prepare, Example, SyntheticConfig};
use ssdrec::denoise::{keep_each, DcRec, Denoiser, Dsan, FmlpRec, Hsd, Keep, Mgsd, Steam};
use ssdrec::metrics::OupAccumulator;
use ssdrec::models::{train, BackboneKind, RecModel};

fn tiny_world() -> Prepared {
    common::sports_world(0.12, 5)
}

/// User 0's keep output for `seq` through the batched path.
fn keep_one(model: &dyn Denoiser, seq: &[usize]) -> Keep {
    let ex = Example {
        user: 0,
        seq: seq.to_vec(),
        target: 1,
        noise: None,
    };
    keep_each(model, &[ex]).remove(0)
}

/// Every kind, built from the model table, trains two epochs on the tiny
/// world to a finite loss.
fn assert_trains_without_divergence(kinds: &[ModelKind]) {
    let prep = tiny_world();
    let ctx = prep.context(8, 0, BackboneKind::SasRec);
    for &kind in kinds {
        let mut model = build_model(kind, &ctx);
        let report = train(&mut *model, &prep.split, &train_config(2, 7));
        assert!(report.final_loss.is_finite(), "{kind:?} diverged");
    }
}

#[test]
fn all_denoisers_train_without_divergence() {
    assert_trains_without_divergence(&ModelKind::BASELINES[..5]);
}

#[test]
fn new_methods_train_without_divergence() {
    assert_trains_without_divergence(&ModelKind::BASELINES[5..]);
}

#[test]
fn implicit_methods_never_drop_items() {
    let prep = tiny_world();
    let ds = &prep.dataset;
    let fmlp = FmlpRec::new(ds.num_items, 8, 50, 1, 0);
    let dcrec = DcRec::new(ds.num_items, 8, 50, &prep.item_freq, 0);
    let seq: Vec<usize> = (1..=6).map(|i| (i % ds.num_items) + 1).collect();
    for model in [&fmlp as &dyn Denoiser, &dcrec] {
        let kept = keep_one(model, &seq).kept;
        assert_eq!(kept.len(), seq.len());
        assert!(kept.iter().all(|&k| k));
    }
}

#[test]
fn keep_scores_align_with_decisions_length() {
    let ds = tiny_world().dataset;
    let hsd = Hsd::new(ds.num_users, ds.num_items, 8, 50, 1);
    let steam = Steam::new(ds.num_items, 8, 50, 1);
    let dsan = Dsan::new(ds.num_items, 8, 1);
    let seq: Vec<usize> = (1..=7).map(|i| (i % ds.num_items) + 1).collect();
    for (name, model) in [
        ("hsd", &hsd as &dyn Denoiser),
        ("steam", &steam),
        ("dsan", &dsan),
    ] {
        let Keep {
            scores,
            kept: decisions,
        } = keep_one(model, &seq);
        assert_eq!(scores.len(), seq.len(), "{name} scores");
        assert_eq!(decisions.len(), seq.len(), "{name} decisions");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "{name} non-finite score"
        );
    }
}

#[test]
fn oup_measurement_pipeline_runs() {
    // The full Fig. 1 wiring: inject noise → train → measure OUP.
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_noise_ratio(0.0)
        .with_seed(9)
        .generate();
    let noisy = inject_unobserved(&raw, 40, 2, 9);
    let (ds, split) = prepare(&noisy, 50, 2);
    let mut hsd = Hsd::new(ds.num_users, ds.num_items, 8, 50, 2);
    train(&mut hsd, &split, &train_config(2, 7));

    let mut acc = OupAccumulator::new();
    for (ex, keep) in split.test.iter().zip(keep_each(&hsd, &split.test)) {
        let Some(noise) = &ex.noise else { continue };
        if ex.seq.is_empty() {
            continue;
        }
        acc.push(noise, &keep.kept);
    }
    assert!(acc.total() > 0, "no labelled positions measured");
    assert!((0.0..=1.0).contains(&acc.under_denoising_ratio()));
    assert!((0.0..=1.0).contains(&acc.over_denoising_ratio()));
}

/// MGSD-WSS's weak supervision must actually *recover* the generator's
/// injected noise, not merely produce well-formed decisions. Two claims are
/// pinned on the noise-labelled profile:
///
/// 1. **Scores order noise below clean** — at the noise-budget operating
///    point (per sequence, flag the `k` lowest keep scores where `k` is the
///    true injected count, so precision = recall by construction) the model
///    must beat the noise base rate by a clear margin. Measured: 0.343
///    against a 0.174 base rate (~2× better than guessing); pinned
///    conservatively at 0.25 so float drift across platforms cannot flip
///    the test while a gate that ignores its labels still fails loudly.
/// 2. **The hard relative-keep rule stays conservative** — like HSD in the
///    Fig. 1 table, the workspace's relative rule drops (almost) nothing at
///    this scale, so over-denoising must stay ≈ 0. This is the OUP row
///    pinned in EXPERIMENTS.md.
#[test]
fn mgsd_weak_supervision_recovers_injected_noise() {
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_noise_ratio(0.0)
        .with_seed(9)
        .generate();
    let noisy = inject_unobserved(&raw, 40, 2, 9);
    let (ds, split) = prepare(&noisy, 50, 2);
    let mut mgsd = Mgsd::new(ds.num_users, ds.num_items, 8, 50, 2);
    mgsd.ws_weight = 4.0;
    train(&mut mgsd, &split, &train_config(8, 7));

    let (mut tp, mut flagged) = (0usize, 0usize);
    let mut labelled = 0usize;
    let mut noisy_positions = 0usize;
    let mut acc = OupAccumulator::new();
    for (ex, Keep { scores, kept }) in split.test.iter().zip(keep_each(&mgsd, &split.test)) {
        let Some(noise) = &ex.noise else { continue };
        if ex.seq.is_empty() {
            continue;
        }
        acc.push(noise, &kept);
        labelled += noise.len();
        let k = noise.iter().filter(|&&n| n).count();
        noisy_positions += k;
        if k == 0 {
            continue;
        }
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
        flagged += k;
        tp += idx[..k].iter().filter(|&&i| noise[i]).count();
    }
    assert!(
        labelled > 0 && noisy_positions > 0,
        "no labelled noise measured"
    );
    let precision = tp as f64 / flagged as f64; // = recall at this budget
    let base_rate = noisy_positions as f64 / labelled as f64;
    println!(
        "mgsd noise recovery: precision@budget={precision:.4} \
         base_rate={base_rate:.4} under={:.4} over={:.4}",
        acc.under_denoising_ratio(),
        acc.over_denoising_ratio()
    );
    assert!(
        precision >= 0.25,
        "precision@budget {precision:.4} below pin 0.25"
    );
    assert!(
        precision >= 1.3 * base_rate,
        "precision@budget {precision:.4} not clearly above base rate {base_rate:.4}"
    );
    assert!(
        acc.over_denoising_ratio() <= 0.05,
        "relative-keep rule over-denoises: {:.4}",
        acc.over_denoising_ratio()
    );
}

#[test]
fn denoiser_eval_scores_cover_catalogue() {
    let Prepared {
        dataset: ds, split, ..
    } = tiny_world();
    let batches = ssdrec::data::make_batches(&split.test, 16, 0);
    let hsd = Hsd::new(ds.num_users, ds.num_items, 8, 50, 3);
    let mut g = ssdrec::tensor::Graph::new();
    let bind = hsd.store.bind_all(&mut g);
    let scores = hsd.eval_scores(&mut g, &bind, &batches[0]);
    assert_eq!(g.value(scores).shape()[1], ds.num_items + 1);
}
