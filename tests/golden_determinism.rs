//! Determinism, pinned two ways on one fixture.
//!
//! **Golden values**: a fixed seed, a tiny synthetic dataset and two
//! training epochs must reproduce *exactly* the HR@10 / NDCG@10 recorded
//! here. This pins the full pipeline — the workspace RNG stream, data
//! generation, graph construction, training order, evaluation — across
//! refactors; see the stream-stability contract in `ssdrec_base::rng`.
//!
//! **Seed sensitivity**: the same pipeline run twice under one seed must be
//! bit-identical, and must actually vary when the seed changes.
//!
//! If a golden test fails after an intentional RNG or pipeline change, rerun
//! with `--nocapture`, verify the change is deliberate, and update the
//! golden values together with a CHANGES.md note.

mod common;

use common::{scratch, sports_world, ssdrec_on, train_config, DIM, MAX_LEN};
use ssdrec::core::{Prepared, SsdRec};
use ssdrec::data::{encode_dataset, plan_leave_one_out, ColumnarReader};
use ssdrec::denoise::Mgsd;
use ssdrec::graph::{build_graph_from_store, GraphConfig};
use ssdrec::models::{
    fit, train, BackboneKind, ContrastiveSeqRec, RecModel, TrainOptions, TrainReport,
};
use ssdrec::tensor::save_params;

const GOLDEN_HR10: f64 = 0.6071428571428571;
const GOLDEN_NDCG10: f64 = 0.3714333486875927;

// The contrastive (CL4SRec) training scenario on the same world.
const GOLDEN_CL_HR10: f64 = 0.5714285714285714;
const GOLDEN_CL_NDCG10: f64 = 0.2423614063351918;

// The multi-granularity (MGSD-WSS) scenario — weak supervision active,
// since the sports profile carries ground-truth noise labels.
const GOLDEN_MGSD_HR10: f64 = 0.6428571428571429;
const GOLDEN_MGSD_NDCG10: f64 = 0.3390576517898549;

/// The world every golden value was recorded on.
fn golden_world() -> Prepared {
    sports_world(0.08, 7)
}

#[test]
fn fixed_seed_two_epochs_reproduces_golden_metrics() {
    let prep = golden_world();
    let report = train(&mut ssdrec_on(&prep, 7), &prep.split, &train_config(2, 7));

    println!("hr10 = {:?}", report.test.hr10);
    println!("ndcg10 = {:?}", report.test.ndcg10);
    assert_eq!(
        report.test.hr10, GOLDEN_HR10,
        "HR@10 drifted from the golden value — the RNG stream or pipeline changed"
    );
    assert_eq!(
        report.test.ndcg10, GOLDEN_NDCG10,
        "NDCG@10 drifted from the golden value — the RNG stream or pipeline changed"
    );
}

/// The entire pipeline — generation, preprocessing, graph, training,
/// evaluation — under `seed`: per-example test ranks, HR@20, MRR@20.
fn run_pipeline(seed: u64) -> (Vec<usize>, f64, f64) {
    let prep = sports_world(0.1, seed);
    let report = train(
        &mut ssdrec_on(&prep, seed),
        &prep.split,
        &train_config(2, seed),
    );
    (report.test_ranks, report.test.hr20, report.test.mrr20)
}

#[test]
fn identical_seeds_produce_identical_results() {
    let (ranks_a, hr_a, mrr_a) = run_pipeline(11);
    let (ranks_b, hr_b, mrr_b) = run_pipeline(11);
    assert_eq!(
        ranks_a, ranks_b,
        "per-example ranks diverged under the same seed"
    );
    assert_eq!(hr_a, hr_b);
    assert_eq!(mrr_a, mrr_b);
}

#[test]
fn different_seeds_produce_different_results() {
    let (ranks_a, _, _) = run_pipeline(11);
    let (ranks_b, _, _) = run_pipeline(12);
    assert_ne!(
        ranks_a, ranks_b,
        "results identical across seeds — RNG not wired through"
    );
}

/// Fingerprint one training run of `model` on the golden world: the exact
/// test HR@10/NDCG@10 and the exact checkpoint bytes `save_params` writes.
fn run_pinned<M: RecModel>(mut model: M, tag: &str) -> (f64, f64, Vec<u8>) {
    let report = train(&mut model, &golden_world().split, &train_config(2, 7));
    let path = scratch(&format!("golden_{tag}.ssdt"));
    save_params(model.store(), &path).expect("save checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);
    (report.test.hr10, report.test.ndcg10, bytes)
}

/// The contrastive scenario pinned end to end: exact HR@10/NDCG@10, and the
/// checkpoint bytes of two independent runs must be identical (the view
/// salt is part of the trainer's RNG stream, so any batch-composition or
/// ordering leak into view generation would flip these bits).
#[test]
fn contrastive_run_reproduces_golden_metrics() {
    let num_items = golden_world().dataset.num_items;
    let mk = || ContrastiveSeqRec::new(BackboneKind::SasRec, num_items, DIM, MAX_LEN, 7);
    let (hr10, ndcg10, bytes) = run_pinned(mk(), "cl_a");
    println!("cl hr10 = {hr10:?}");
    println!("cl ndcg10 = {ndcg10:?}");
    assert_eq!(
        hr10, GOLDEN_CL_HR10,
        "contrastive HR@10 drifted from the golden value"
    );
    assert_eq!(
        ndcg10, GOLDEN_CL_NDCG10,
        "contrastive NDCG@10 drifted from the golden value"
    );
    let (_, _, bytes2) = run_pinned(mk(), "cl_b");
    assert_eq!(
        bytes, bytes2,
        "contrastive checkpoint bytes not reproducible"
    );
}

/// The multi-granularity scenario pinned end to end, weak supervision
/// included (the sports profile carries ground-truth noise labels, so the
/// gate trains on them rather than on correlation targets).
#[test]
fn mgsd_run_reproduces_golden_metrics() {
    let ds = golden_world().dataset;
    let mk = || Mgsd::new(ds.num_users, ds.num_items, DIM, MAX_LEN, 7);
    let (hr10, ndcg10, bytes) = run_pinned(mk(), "mgsd_a");
    println!("mgsd hr10 = {hr10:?}");
    println!("mgsd ndcg10 = {ndcg10:?}");
    assert_eq!(
        hr10, GOLDEN_MGSD_HR10,
        "MGSD HR@10 drifted from the golden value"
    );
    assert_eq!(
        ndcg10, GOLDEN_MGSD_NDCG10,
        "MGSD NDCG@10 drifted from the golden value"
    );
    let (_, _, bytes2) = run_pinned(mk(), "mgsd_b");
    assert_eq!(bytes, bytes2, "MGSD checkpoint bytes not reproducible");
}

/// The out-of-core path on the golden world: encode the prepared dataset
/// (already 5-core-filtered and truncated, so the file holds exactly what
/// the in-RAM pipeline trains on) to the columnar file `file`, re-plan the
/// split over the windowed reader, build the model `mk` makes from that
/// reader, and train it through the store views.
fn train_from_columnar<M: RecModel>(
    file: &str,
    mk: impl FnOnce(&Prepared, &ColumnarReader) -> M,
) -> TrainReport {
    let prep = golden_world();
    let path = scratch(file);
    encode_dataset(&prep.dataset, &path).expect("encode");
    let reader = ColumnarReader::open(&path).expect("open");
    let plan = plan_leave_one_out(&reader, 5, 2);
    let mut model = mk(&prep, &reader);
    let views = plan.views(&reader);
    let report = fit(
        &mut model,
        &(&views).into(),
        &train_config(2, 7),
        &TrainOptions::default(),
    )
    .expect("train");
    let _ = std::fs::remove_file(path);
    report
}

/// MGSD trained out-of-core from a `.ssdc` file must land on the *same*
/// golden metrics as the in-RAM run: this pins the NOIS section round-trip
/// — the columnar reader feeding the generator's noise labels back into the
/// weak-supervision gate, bit for bit.
#[test]
fn mgsd_columnar_store_training_matches_in_ram_golden() {
    let report = train_from_columnar("sports_mgsd.ssdc", |prep, _| {
        let ds = &prep.dataset;
        Mgsd::new(ds.num_users, ds.num_items, DIM, MAX_LEN, 7)
    });
    assert_eq!(
        report.test.hr10, GOLDEN_MGSD_HR10,
        "columnar-store MGSD training drifted from the golden HR@10"
    );
    assert_eq!(
        report.test.ndcg10, GOLDEN_MGSD_NDCG10,
        "columnar-store MGSD training drifted from the golden NDCG@10"
    );
}

/// SSDRec out-of-core, the graph built in counting passes over the reader,
/// must land on the *same* golden HR@10 / NDCG@10 as the in-RAM path above:
/// not approximately, exactly.
#[test]
fn columnar_store_training_reproduces_golden_metrics() {
    let report = train_from_columnar("sports.ssdc", |prep, reader| {
        let graph = build_graph_from_store(reader, &GraphConfig::default());
        let cfg = prep.context(DIM, 7, BackboneKind::SasRec).ssdrec_config();
        SsdRec::new(&graph, cfg)
    });
    assert_eq!(
        report.test.hr10, GOLDEN_HR10,
        "columnar-store training drifted from the golden HR@10"
    );
    assert_eq!(
        report.test.ndcg10, GOLDEN_NDCG10,
        "columnar-store training drifted from the golden NDCG@10"
    );
}
