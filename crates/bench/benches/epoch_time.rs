//! Bench behind Table VI: one optimisation step (forward + backward + Adam)
//! per model on a fixed mini-batch — the unit that per-epoch time is made of.
//! Runs on the in-workspace `ssdrec_testkit::bench::Harness`.

use ssdrec_testkit::bench::Harness;

use ssdrec_core::{build_model, ModelKind, Prepared};
use ssdrec_data::{make_batches, Batch, SyntheticConfig};
use ssdrec_models::{BackboneKind, RecModel};
use ssdrec_tensor::{Adam, Graph, Rng};

fn one_step(model: &mut dyn RecModel, batch: &Batch, opt: &mut Adam, rng: &mut Rng) {
    let mut g = Graph::new();
    let bind = model.store().bind_all(&mut g);
    let loss = model.loss(&mut g, &bind, batch, rng);
    let mut grads = g.backward(loss);
    opt.step(model.store_mut(), &bind, &mut grads);
}

fn main() {
    let raw = SyntheticConfig::beauty().scaled(0.25).generate();
    let prep = Prepared::new(&raw, 50, 2);
    let batches = make_batches(&prep.split.train, 32, 0);
    let batch = batches
        .iter()
        .max_by_key(|b| b.len())
        .expect("nonempty training data");
    let ctx = prep.context(16, 0, BackboneKind::SasRec);

    let mut h = Harness::new("epoch_time");
    for (name, kind, seed) in [
        ("train_step/sasrec", ModelKind::Backbone, 1),
        ("train_step/hsd", ModelKind::Hsd, 2),
        ("train_step/ssdrec", ModelKind::SsdRec, 3),
    ] {
        let mut model = build_model(kind, &ctx);
        let mut opt = Adam::new(1e-3);
        let mut rng = Rng::seed(seed);
        h.bench(name, || one_step(&mut *model, batch, &mut opt, &mut rng));
    }
    h.finish();
}
