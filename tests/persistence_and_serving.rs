//! Integration tests for the serving path: checkpointing, reloading and
//! top-k recommendation through the public facade.

mod common;

use std::path::PathBuf;

use common::{scratch, served_bits, sports_world, ssdrec_on, train_config, DIM, MAX_LEN};
use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{make_batches, prepare, SyntheticConfig};
use ssdrec::graph::{build_graph, GraphConfig};
use ssdrec::models::{train, BackboneKind, RecModel, SeqRec, TrainConfig};
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

/// `tests/fixtures/<name>`: `parent_trained.ssdt`, trained once on the last
/// commit whose LSTM was unrolled on the tape step by step (e2fa74d) and kept
/// as the older-checkpoint fixture, and `parent_pins.txt`, written by
/// [`record_parent_fixtures`] on the parent of the change each pin guards.
fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The world the fixtures were recorded on (the golden-metrics one).
fn pinned_world() -> ssdrec::core::Prepared {
    sports_world(0.08, 7)
}

/// FNV-1a over `bytes`.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// FNV-1a over the bits of every `eval_scores` row of the untrained
/// `tests/common` model on its test split, batched as evaluation batches it.
fn untrained_eval_scores_checksum() -> u64 {
    let prep = pinned_world();
    let model = ssdrec_on(&prep, 7);
    let mut bytes = Vec::new();
    for batch in make_batches(&prep.split.test, 32, 7) {
        let mut g = Graph::new();
        let bind = model.store().bind_all(&mut g);
        let scores = model.eval_scores(&mut g, &bind, &batch);
        for v in g.value(scores).data() {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    fnv64(bytes)
}

/// What a one-worker, cache-less engine answers for `tests/common`'s probe
/// request once `parent_trained.ssdt` is loaded into a fresh model, as
/// `item:bits`.
fn served_from_parent_checkpoint() -> String {
    let mut model = ssdrec_on(&pinned_world(), 7);
    load_params(&mut model.store, fixture("parent_trained.ssdt"))
        .expect("the parent's checkpoint must still load");
    let top: Vec<String> = served_bits(model, MAX_LEN)
        .iter()
        .map(|(i, s)| format!("{i}:{s:08x}"))
        .collect();
    top.join(" ")
}

/// FNV-1a of the `.ssdt` bytes of `model` after two epochs on the pinned
/// world — for SSDRec, long enough for the augmentation stage to train.
fn trained_ssdt_checksum(mut model: impl RecModel, tag: &str) -> u64 {
    let prep = pinned_world();
    train(&mut model, &prep.split, &train_config(2, 7));
    let path = scratch(&format!("pinned_{tag}.ssdt"));
    save_params(model.store(), &path).unwrap();
    fnv64(std::fs::read(&path).unwrap())
}

fn trained_ssdrec_checksum() -> u64 {
    trained_ssdt_checksum(ssdrec_on(&pinned_world(), 7), "ssdrec")
}

fn trained_sasrec_checksum() -> u64 {
    let items = pinned_world().dataset.num_items;
    trained_ssdt_checksum(
        SeqRec::new(BackboneKind::SasRec, items, DIM, MAX_LEN, 7),
        "sasrec",
    )
}

fn trained_bert4rec_checksum() -> u64 {
    let items = pinned_world().dataset.num_items;
    trained_ssdt_checksum(
        SeqRec::new(BackboneKind::Bert4Rec, items, DIM, MAX_LEN, 7),
        "bert4rec",
    )
}

/// The pin named `key` in `parent_pins.txt` (one `key value` per line).
fn pin(key: &str) -> String {
    let pins = std::fs::read_to_string(fixture("parent_pins.txt")).expect("pins fixture");
    pins.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {key} pin"))
        .to_string()
}

/// Writes `parent_pins.txt` from the checked-out code — run it on the parent
/// of a change the pins must hold across, never after it; only a change that
/// bumps `KERNEL_BITS_VERSION` re-records them on itself:
/// `cargo test --test persistence_and_serving -- --ignored`.
/// `parent_trained.ssdt` is trained only if it is missing.
#[test]
#[ignore = "rewrites tests/fixtures from the checked-out code"]
fn record_parent_fixtures() {
    std::fs::create_dir_all(fixture("")).unwrap();
    if !fixture("parent_trained.ssdt").exists() {
        let prep = pinned_world();
        let mut model = ssdrec_on(&prep, 7);
        train(&mut model, &prep.split, &train_config(2, 7));
        save_params(&model.store, fixture("parent_trained.ssdt")).unwrap();
    }
    let pins = format!(
        "eval_scores_fnv64 {:016x}\ntop8 {}\ntrained_ssdt_fnv64_ssdrec {:016x}\ntrained_ssdt_fnv64_sasrec {:016x}\ntrained_ssdt_fnv64_bert4rec {:016x}\n",
        untrained_eval_scores_checksum(),
        served_from_parent_checkpoint(),
        trained_ssdrec_checksum(),
        trained_sasrec_checksum(),
        trained_bert4rec_checksum(),
    );
    std::fs::write(fixture("parent_pins.txt"), pins).unwrap();
}

/// Forward values are bit-equal to the unrolled LSTM and the checkpoint
/// format is unchanged: the untrained model scores exactly what it scored
/// on the parent commit, and a checkpoint the parent trained loads and
/// serves the parent's top-K, score bits included.
#[test]
fn forward_bits_and_parent_checkpoint_are_unchanged() {
    assert_eq!(
        format!("{:016x}", untrained_eval_scores_checksum()),
        pin("eval_scores_fnv64"),
        "forward bits moved"
    );
    assert_eq!(
        served_from_parent_checkpoint(),
        pin("top8"),
        "checkpoint layout or served bits moved"
    );
}

/// Training bits are unchanged: two epochs of SSDRec (augmentation active)
/// and of bare SASRec and BERT4Rec write the very `.ssdt` bytes they wrote
/// on the commit each pin was recorded on (the BERT4Rec pin on the parent of
/// the readout-only last block).
#[test]
fn trained_checkpoint_bytes_are_unchanged() {
    assert_eq!(
        format!("{:016x}", trained_ssdrec_checksum()),
        pin("trained_ssdt_fnv64_ssdrec"),
        "SSDRec training bits moved"
    );
    assert_eq!(
        format!("{:016x}", trained_sasrec_checksum()),
        pin("trained_ssdt_fnv64_sasrec"),
        "SASRec training bits moved"
    );
    assert_eq!(
        format!("{:016x}", trained_bert4rec_checksum()),
        pin("trained_ssdt_fnv64_bert4rec"),
        "BERT4Rec training bits moved"
    );
}
