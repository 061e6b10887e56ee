//! Integration tests for the serving path: checkpointing, reloading and
//! top-k recommendation through the public facade.

mod common;

use std::path::PathBuf;

use common::{served_bits, sports_world, ssdrec_on, train_config, MAX_LEN};
use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{make_batches, prepare, SyntheticConfig};
use ssdrec::graph::{build_graph, GraphConfig};
use ssdrec::models::{train, RecModel, TrainConfig};
use ssdrec::tensor::{load_params, save_params, Graph};

fn setup() -> (ssdrec::data::Split, ssdrec::graph::MultiRelationGraph) {
    let raw = SyntheticConfig::yelp().scaled(0.1).with_seed(21).generate();
    let (dataset, split) = prepare(&raw, 50, 2);
    let graph = build_graph(&dataset, &GraphConfig::default());
    (split, graph)
}

fn config(dim: usize) -> SsdRecConfig {
    SsdRecConfig {
        dim,
        max_len: 50,
        ..SsdRecConfig::default()
    }
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    let (split, graph) = setup();
    let cfg = config(8);
    let mut model = SsdRec::new(&graph, cfg.clone());
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..TrainConfig::default()
    };
    train(&mut model, &split, &tc);

    let path = std::env::temp_dir().join("ssdrec_it_roundtrip.ssdt");
    save_params(&model.store, &path).unwrap();

    let mut reloaded = SsdRec::new(&graph, cfg);
    load_params(&mut reloaded.store, &path).unwrap();

    let ex = &split.test[0];
    assert_eq!(
        model.recommend(ex.user, &ex.seq, 10),
        reloaded.recommend(ex.user, &ex.seq, 10),
        "reloaded model diverges"
    );
}

#[test]
fn checkpoint_rejects_different_architecture() {
    let (_split, graph) = setup();
    let cfg8 = config(8);
    let model = SsdRec::new(&graph, cfg8);
    let path = std::env::temp_dir().join("ssdrec_it_arch.ssdt");
    save_params(&model.store, &path).unwrap();

    let cfg16 = config(16);
    let mut wrong = SsdRec::new(&graph, cfg16);
    assert!(load_params(&mut wrong.store, &path).is_err());
}

#[test]
fn recommendations_exclude_pad_and_respect_k() {
    let (split, graph) = setup();
    let cfg = config(8);
    let model = SsdRec::new(&graph, cfg);
    let ex = &split.test[0];
    let recs = model.recommend(ex.user, &ex.seq, 7);
    assert!(recs.len() <= 7);
    assert!(
        recs.iter().all(|&(item, _)| item != 0),
        "pad item recommended"
    );
    assert!(recs.iter().all(|&(_, s)| s.is_finite()));
}

/// The paper's §III-G space-complexity claim: parameters are dominated by
/// the `O(|V| + |U|)` embedding tables, so doubling the catalogue roughly
/// doubles the parameter count while the rest stays fixed.
#[test]
fn parameter_count_scales_with_catalogue() {
    let small = SyntheticConfig::beauty()
        .scaled(0.1)
        .with_seed(1)
        .generate();
    let large = SyntheticConfig::beauty()
        .scaled(0.2)
        .with_seed(1)
        .generate();
    let gs = build_graph(&small, &GraphConfig::default());
    let gl = build_graph(&large, &GraphConfig::default());
    let cfg = config(8);
    let ms = SsdRec::new(&gs, cfg.clone());
    let ml = SsdRec::new(&gl, cfg);

    let d = 8;
    let emb_small = (small.num_items + 1 + small.num_users) * d;
    let emb_large = (large.num_items + 1 + large.num_users) * d;
    let fixed_small = ms.store.num_scalars() - emb_small;
    let fixed_large = ml.store.num_scalars() - emb_large;
    assert_eq!(
        fixed_small, fixed_large,
        "non-embedding parameters should not scale with |V|+|U|"
    );
    assert!(ml.store.num_scalars() > ms.store.num_scalars());
}

/// `tests/fixtures/<name>`: files written once by [`record_parent_fixtures`]
/// on the last commit whose LSTM was unrolled on the tape step by step.
fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The world the fixtures were recorded on (the golden-metrics one).
fn pinned_world() -> ssdrec::core::Prepared {
    sports_world(0.08, 7)
}

/// FNV-1a over the bits of every `eval_scores` row of the untrained
/// `tests/common` model on its test split, batched as evaluation batches it.
fn untrained_eval_scores_checksum() -> u64 {
    let prep = pinned_world();
    let model = ssdrec_on(&prep, 7);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for batch in make_batches(&prep.split.test, 32, 7) {
        let mut g = Graph::new();
        let bind = model.store().bind_all(&mut g);
        let scores = model.eval_scores(&mut g, &bind, &batch);
        for v in g.value(scores).data() {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// The pins as text: the checksum, then the served top-8 as `item:bits`.
fn render_pins(checksum: u64, top: &[(usize, u32)]) -> String {
    let top: Vec<String> = top.iter().map(|(i, s)| format!("{i}:{s:08x}")).collect();
    format!(
        "eval_scores_fnv64 {checksum:016x}\ntop8 {}\n",
        top.join(" ")
    )
}

/// What a one-worker, cache-less engine answers for `tests/common`'s probe
/// request once `parent_trained.ssdt` is loaded into a fresh model.
fn served_from_parent_checkpoint() -> Vec<(usize, u32)> {
    let mut model = ssdrec_on(&pinned_world(), 7);
    load_params(&mut model.store, fixture("parent_trained.ssdt"))
        .expect("the parent's checkpoint must still load");
    served_bits(model, MAX_LEN)
}

/// Writes the fixtures. Run on the parent of the fused-LSTM change, never
/// after it: `cargo test --test persistence_and_serving -- --ignored`.
#[test]
#[ignore = "rewrites tests/fixtures from the checked-out code"]
fn record_parent_fixtures() {
    std::fs::create_dir_all(fixture("")).unwrap();
    let prep = pinned_world();
    let mut model = ssdrec_on(&prep, 7);
    train(&mut model, &prep.split, &train_config(2, 7));
    save_params(&model.store, fixture("parent_trained.ssdt")).unwrap();
    let pins = render_pins(
        untrained_eval_scores_checksum(),
        &served_from_parent_checkpoint(),
    );
    std::fs::write(fixture("parent_pins.txt"), pins).unwrap();
}

/// Forward values are bit-equal to the unrolled LSTM and the checkpoint
/// format is unchanged: the untrained model scores exactly what it scored
/// on the parent commit, and a checkpoint the parent trained loads and
/// serves the parent's top-K, score bits included.
#[test]
fn forward_bits_and_parent_checkpoint_are_unchanged() {
    let want = std::fs::read_to_string(fixture("parent_pins.txt")).expect("pins fixture");
    let got = render_pins(
        untrained_eval_scores_checksum(),
        &served_from_parent_checkpoint(),
    );
    assert_eq!(got, want, "forward bits or checkpoint layout moved");
}
