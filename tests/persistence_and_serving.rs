//! Integration tests for the serving path: checkpointing, reloading and
//! top-k recommendation through the public facade.

use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{prepare, SyntheticConfig};
use ssdrec::graph::{build_graph, GraphConfig};
use ssdrec::models::{train, RecModel, TrainConfig};
use ssdrec::tensor::{load_params, save_params};

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
