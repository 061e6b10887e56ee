//! End-to-end integration: data generation → preprocessing → graph →
//! SSDRec training → evaluation, exercising the whole workspace through the
//! public facade.

mod common;

use common::train_config;
use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{prepare, SyntheticConfig};
use ssdrec::graph::{build_graph, GraphConfig};
use ssdrec::models::{evaluate, train, BackboneKind, RecModel};

fn tiny_setup() -> (
    ssdrec::data::Dataset,
    ssdrec::data::Split,
    ssdrec::graph::MultiRelationGraph,
) {
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_seed(11)
        .generate();
    let (dataset, split) = prepare(&raw, 50, 2);
    let graph = build_graph(&dataset, &GraphConfig::default());
    (dataset, split, graph)
}

fn tiny_config() -> SsdRecConfig {
    SsdRecConfig {
        dim: 8,
        max_len: 50,
        ..SsdRecConfig::default()
    }
}

#[test]
fn ssdrec_trains_and_beats_random_ranking() {
    let (dataset, split, graph) = tiny_setup();
    let mut model = SsdRec::new(&graph, tiny_config());
    let tc = train_config(4, 7);
    let report = train(&mut model, &split, &tc);
    assert!(report.final_loss.is_finite());
    let random_hr20 = 20.0 / dataset.num_items as f64;
    assert!(
        report.test.hr20 > random_hr20,
        "HR@20 {} vs random {}",
        report.test.hr20,
        random_hr20
    );
}

#[test]
fn trained_model_is_reusable_for_evaluation() {
    let (_dataset, split, graph) = tiny_setup();
    let mut model = SsdRec::new(&graph, tiny_config());
    let tc = train_config(2, 7);
    let report = train(&mut model, &split, &tc);
    // Re-evaluating the restored model reproduces the reported test metrics.
    let acc = evaluate(&model, &split.test, 32);
    assert!((acc.hr(20) - report.test.hr20).abs() < 1e-12);
    assert!((acc.mrr(20) - report.test.mrr20).abs() < 1e-12);
}

#[test]
fn ablation_variants_all_run_end_to_end() {
    let (_dataset, split, graph) = tiny_setup();
    let tc = train_config(1, 7);
    for (s1, s2, s3) in [
        (false, true, true),
        (true, false, true),
        (true, true, false),
    ] {
        let cfg = SsdRecConfig {
            stage1: s1,
            stage2: s2,
            stage3: s3,
            ..tiny_config()
        };
        let mut model = SsdRec::new(&graph, cfg);
        let report = train(&mut model, &split, &tc);
        assert!(
            report.final_loss.is_finite(),
            "variant ({s1},{s2},{s3}) diverged"
        );
        assert!(
            !model.store.any_non_finite(),
            "variant ({s1},{s2},{s3}) has NaN params"
        );
    }
}

#[test]
fn keep_decisions_and_explain_work_after_training() {
    let (_dataset, split, graph) = tiny_setup();
    let mut model = SsdRec::new(&graph, tiny_config());
    let tc = train_config(1, 7);
    train(&mut model, &split, &tc);

    let ex = split
        .test
        .iter()
        .find(|e| e.seq.len() >= 4)
        .expect("a long-enough test example");
    let one = std::slice::from_ref(ex);
    let keep = ssdrec::denoise::keep_each(&model, one).remove(0);
    assert_eq!(keep.kept.len(), ex.seq.len());

    let mut rng = ssdrec::tensor::Rng::seed(0);
    let cs = model.explain(one, &mut rng).remove(0);
    assert_eq!(
        cs.kept, keep.kept,
        "the trace and the keep pass decide alike"
    );
    assert!(cs.raw_score.is_finite() && cs.denoised_score.is_finite());
}

#[test]
fn backbone_plug_in_compatibility() {
    // Every backbone must run inside SSDRec for at least one step.
    let (_dataset, split, graph) = tiny_setup();
    let tc = train_config(1, 7);
    for kind in BackboneKind::all() {
        let cfg = SsdRecConfig {
            backbone: kind,
            ..tiny_config()
        };
        let mut model = SsdRec::new(&graph, cfg);
        let report = train(&mut model, &split, &tc);
        assert!(
            report.final_loss.is_finite(),
            "{} inside SSDRec diverged",
            kind.name()
        );
        assert!(model.model_name().starts_with("SSDRec"));
    }
}
