//! The step-scoped tensor pool reaches its steady state after one training
//! step: step 1 builds the free-lists (misses expected), and from the
//! second step on at least 90 % of buffer takes are served from them.

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{make_batches, prepare, Batch, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig};
use ssdrec_models::{BackboneKind, RecModel, SeqRec};
use ssdrec_tensor::{pool, Adam, Gradients, Graph, Rng};

/// Run the trainer's inner loop — one long-lived graph, reset every step —
/// over `batches` and assert the pool contract. Returns the most LSTM
/// directions any step put on the tape.
fn assert_steady_state<M: RecModel>(model: &mut M, batches: &[Batch]) -> usize {
    assert!(batches.len() >= 3, "need a first step and a steady state");

    // Counters and the enabled switch are per thread, so neither a sibling
    // test nor an inherited SSDREC_POOL=0 reaches this measurement.
    pool::set_enabled(true);
    pool::reset_local_stats();

    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed(7);
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();
    let mut first_step = pool::PoolStats::default();
    let mut lstm_directions = 0;
    for (step, batch) in batches.iter().enumerate() {
        g.reset();
        let bind = model.store().bind_all(&mut g);
        let loss = model.loss(&mut g, &bind, batch, &mut rng);
        assert!(g.value(loss).item().is_finite());
        lstm_directions = lstm_directions.max(g.lstm_seq_nodes());
        g.backward_into(loss, &mut ws);
        opt.step(model.store_mut(), &bind, &mut ws);
        model.after_step();
        if step == 0 {
            first_step = pool::local_stats();
        }
    }

    let steady = pool::local_stats().since(&first_step);
    assert!(first_step.misses > 0, "step 1 builds the inventory");
    assert!(
        steady.hit_rate() >= 0.90,
        "steady-state pool hit rate {:.4} ({} hits / {} misses over steps 2..{}) \
         below the 90% contract",
        steady.hit_rate(),
        steady.hits,
        steady.misses,
        batches.len()
    );
    lstm_directions
}

#[test]
fn pool_serves_ninety_percent_of_takes_from_the_second_step() {
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_seed(4)
        .generate();
    let (filtered, split) = prepare(&raw, 50, 2);
    let mut model = SeqRec::new(BackboneKind::SasRec, filtered.num_items, 8, 50, 5);
    assert_steady_state(&mut model, &make_batches(&split.train, 32, 7));
}

/// The same contract over augmented SSDRec steps: the fused LSTM nodes'
/// saved activations and scratch are pool buffers that come back on reset.
#[test]
fn pool_serves_augmented_ssdrec_steps() {
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_seed(4)
        .generate();
    let (filtered, split) = prepare(&raw, 50, 2);
    let graph = build_graph(&filtered, &GraphConfig::default());
    let cfg = SsdRecConfig {
        dim: 8,
        max_len: 50,
        ..SsdRecConfig::default()
    };
    let mut model = SsdRec::new(&graph, cfg);
    model.on_epoch_start(1, 2); // past the augmentation warm-up
    let lstm_directions = assert_steady_state(&mut model, &make_batches(&split.train, 32, 7));
    assert_eq!(lstm_directions, 6, "no step ran all three Bi-LSTMs");
}
