//! Non-finite losses in the trainer: the step is skipped, counted in
//! `TrainReport::skipped_steps`, and costs nothing but its own update.

use std::cell::Cell;

use ssdrec_data::{prepare, Batch, BatchSource, SyntheticConfig};
use ssdrec_models::{train, BackboneKind, RecModel, SeqRec, TrainConfig};
use ssdrec_tensor::{Adam, Binding, Graph, ParamStore, Rng, Var};

/// A [`SeqRec`] whose loss is NaN on the chosen (0-based) steps.
struct NanOnSteps {
    inner: SeqRec,
    poisoned: Vec<usize>,
    step: Cell<usize>,
}

impl RecModel for NanOnSteps {
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
    fn loss(&self, g: &mut Graph, bind: &Binding, batch: &Batch, rng: &mut Rng) -> Var {
        let loss = self.inner.loss(g, bind, batch, rng);
        let step = self.step.replace(self.step.get() + 1);
        if self.poisoned.contains(&step) {
            g.scale(loss, f32::NAN)
        } else {
            loss
        }
    }
    fn precompute_frozen(&self, g: &mut Graph, bind: &Binding) -> Vec<Var> {
        self.inner.precompute_frozen(g, bind)
    }
    fn eval_scores_frozen(
        &self,
        g: &mut Graph,
        bind: &Binding,
        batch: &Batch,
        frozen: &[Var],
    ) -> Var {
        self.inner.eval_scores_frozen(g, bind, batch, frozen)
    }
    fn model_name(&self) -> String {
        self.inner.model_name()
    }
}

/// Non-finite steps are counted and cost nothing but their own update:
/// the parameters after the epoch carry the bits of a hand-rolled loop
/// that computes every loss (same RNG draws) and leaves those steps out.
#[test]
fn non_finite_steps_are_counted_and_skip_only_their_own_update() {
    let raw = SyntheticConfig::beauty()
        .scaled(0.12)
        .with_seed(4)
        .generate();
    let (filtered, split) = prepare(&raw, 50, 2);
    let num_items = filtered.num_items;
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let poisoned = vec![1, 3];
    let mk = || SeqRec::new(BackboneKind::Gru4Rec, num_items, 8, 50, 5);

    let mut model = NanOnSteps {
        inner: mk(),
        poisoned: poisoned.clone(),
        step: Cell::new(0),
    };
    let report = train(&mut model, &split, &cfg);
    assert_eq!(report.skipped_steps, poisoned.len());

    let mut reference = mk();
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut rng = Rng::seed(cfg.seed);
    let (mut loss_sum, mut kept, mut step) = (0.0f32, 0usize, 0usize);
    split
        .train
        .for_each_batch(cfg.batch_size, cfg.seed, &mut |batch| {
            let mut g = Graph::new();
            let bind = reference.store().bind_all(&mut g);
            let loss = reference.loss(&mut g, &bind, batch, &mut rng);
            if !poisoned.contains(&step) {
                loss_sum += g.value(loss).item();
                kept += 1;
                let mut grads = g.backward(loss);
                opt.step(reference.store_mut(), &bind, &mut grads);
            }
            step += 1;
        });
    assert!(step > poisoned.len() + 2, "too few steps to be a test");
    assert_eq!(
        report.final_loss.to_bits(),
        (loss_sum / kept as f32).to_bits()
    );
    let bits = |s: &ParamStore| -> Vec<Vec<u32>> {
        let tensors = s.snapshot();
        tensors
            .iter()
            .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(model.store()), bits(reference.store()));
}
