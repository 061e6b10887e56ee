//! The step-scoped tensor pool reaches its steady state after one training
//! step: step 1 builds the free-lists (misses expected), and from the
//! second step on at least 90 % of buffer takes are served from them.

use ssdrec_data::{make_batches, prepare, SyntheticConfig};
use ssdrec_models::{BackboneKind, RecModel, SeqRec};
use ssdrec_tensor::{pool, Adam, Gradients, Graph, Rng};

#[test]
fn pool_serves_ninety_percent_of_takes_from_the_second_step() {
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_seed(4)
        .generate();
    let (filtered, split) = prepare(&raw, 50, 2);
    let mut model = SeqRec::new(BackboneKind::SasRec, filtered.num_items, 8, 50, 5);
    let batches = make_batches(&split.train, 32, 7);
    assert!(batches.len() >= 3, "need a first step and a steady state");

    // Counters and the enabled switch are per thread, so neither a sibling
    // test nor an inherited SSDREC_POOL=0 reaches this measurement.
    pool::set_enabled(true);
    pool::reset_local_stats();

    // The trainer's inner loop: one long-lived graph, reset every step.
    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed(7);
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    let mut ws = Gradients::new();
    let mut first_step = pool::PoolStats::default();
    for (step, batch) in batches.iter().enumerate() {
        g.reset();
        let bind = model.store().bind_all(&mut g);
        let loss = model.loss(&mut g, &bind, batch, &mut rng);
        assert!(g.value(loss).item().is_finite());
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
}
