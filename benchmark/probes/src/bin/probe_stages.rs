//! `probe_stages` — SSDRec's own stages, the paper's Table VI axis. Each
//! stage is built from its public constructor and run forward on one
//! `B = 64` batch of `train_ssdrec`'s short sequences (so augmentation
//! applies); the full model's loss forward on the same batch says how much
//! of it the four stages cover, and the remainder is named.

use ssdrec_benchmark_driver::sizes::number;
use ssdrec_benchmark_probes::{beauty, median, prepared, random_batch, ssdrec_config, Probe};
use ssdrec_core::{
    GlobalRelationEncoder, HierarchicalDenoiser, RelationAdjacency, SelfAugmenter, SsdRec,
};
use ssdrec_data::make_batches;
use ssdrec_models::{build_encoder, BackboneKind, RecModel, SeqRec};
use ssdrec_tensor::nn::Embedding;
use ssdrec_tensor::{Adam, Gradients, Graph, ParamStore, Rng};

const MAX_LEN: usize = 50;
/// The model's initial Gumbel temperature.
const TAU: f32 = 1.0;

fn main() {
    let mut p = Probe::start("probe_stages");
    let sz = p.sizes;
    let d = number(sz.train_dim) as usize;
    let prep = prepared(sz.train_scale, p.seed, MAX_LEN);
    let cfg = ssdrec_config(d, MAX_LEN, p.seed);

    // Model construction densifies the seven relation adjacencies.
    let build_ms = p.median_ms("core.model_build", p.reps(5), || {
        std::hint::black_box(SsdRec::new(&prep.graph, cfg.clone()));
    });

    // A full batch of short sequences (so augmentation applies), as close
    // to the profile's typical history of eight items as the epoch has.
    let batches = make_batches(&prep.split.train, 64, p.seed);
    let batch = batches
        .iter()
        .filter(|b| b.seq_len >= 2 && b.seq_len < cfg.aug_short_len)
        .max_by_key(|b| (b.len(), std::cmp::Reverse(b.seq_len.abs_diff(8))))
        .expect("the beauty profile has short sequences");
    let (b, t) = (batch.len(), batch.seq_len);

    // Each stage on its own parameters, from its public constructor.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed(p.seed);
    let item_emb = Embedding::new(&mut store, "item", prep.graph.num_items + 1, d, &mut rng);
    let user_emb = Embedding::new(&mut store, "user", prep.graph.num_users.max(1), d, &mut rng);
    let encoder = GlobalRelationEncoder::with_attention(
        &mut store,
        d,
        RelationAdjacency::from_graph(&prep.graph),
        true,
        &mut rng,
    );
    let augmenter = SelfAugmenter::new(&mut store, "aug", d, &mut rng);
    let denoiser = HierarchicalDenoiser::new(&mut store, "den", d, &mut rng);
    let backbone = build_encoder(BackboneKind::SasRec, &mut store, d, MAX_LEN + 2, &mut rng);

    // The assembled model, augmentation on, for the same batch.
    let mut model = SsdRec::new(&prep.graph, cfg.clone());
    model.on_epoch_start(1, 2);
    let mut model_rng = Rng::seed(p.seed);

    // Stage pass and whole forward take turns, so that a disturbance of the
    // host falls on both sides of each coverage ratio.
    let (mut rel, mut aug, mut den, mut bb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rest, mut coverage) = (Vec::new(), Vec::new());
    let mut g = Graph::with_capacity(Graph::DEFAULT_CAPACITY);
    for _ in 0..p.reps(30) {
        let stages_ms = p.timed("stages", p.root(), |parent| {
            g.reset();
            let bind = store.bind_all(&mut g);
            let (it, ut) = (item_emb.table(&bind), user_emb.table(&bind));
            let (tables, rel_ms) = p.timed("core.relation_encoder_fwd", parent, |_| {
                encoder.forward(&mut g, &bind, it, ut)
            });
            let hv = g.embedding(tables.items, &batch.items);
            let h_seq = g.reshape(hv, &[b, t, d]);
            let hu = g.embedding(tables.users, &batch.users);
            let (augmented, aug_ms) = p.timed("core.augment_fwd", parent, |_| {
                augmenter.augment(&mut g, &bind, &mut rng, h_seq, tables.items, TAU)
            });
            let (denoised, den_ms) = p.timed("core.denoise_fwd", parent, |_| {
                let (refined, _, _) = denoiser.refine(&mut g, &bind, h_seq, &augmented);
                let copy = Some(augmented.copy_matrix);
                denoiser
                    .denoise_train(&mut g, &bind, &mut rng, h_seq, refined, copy, hu, TAU, None)
                    .0
            });
            let (_, bb_ms) = p.timed("models.backbone_fwd", parent, |_| {
                backbone.encode(&mut g, &bind, denoised)
            });
            rel.push(rel_ms);
            aug.push(aug_ms);
            den.push(den_ms);
            bb.push(bb_ms);
            rel_ms + aug_ms + den_ms + bb_ms
        });
        g.reset();
        let bind = model.store().bind_all(&mut g);
        let (_, full_ms) = p.timed("models.loss_forward", p.root(), |_| {
            model.loss(&mut g, &bind, batch, &mut model_rng)
        });
        rest.push(full_ms - stages_ms.0);
        coverage.push(stages_ms.0 / full_ms);
    }

    // A bare SASRec step at `data_to_train`'s shapes: the control.
    let corpus = beauty(sz.data_scale, p.seed);
    let mut sasrec = SeqRec::new(
        BackboneKind::SasRec,
        corpus.num_items,
        number(sz.data_dim) as usize,
        MAX_LEN,
        p.seed,
    );
    let control = random_batch(64, 8, corpus.num_users, corpus.num_items, p.seed);
    let mut opt = Adam::new(1e-3);
    let mut ws = Gradients::new();
    let mut step_rng = Rng::seed(p.seed);
    let sasrec_ms = p.median_ms("models.sasrec_step", p.reps(30), || {
        g.reset();
        let bind = sasrec.store().bind_all(&mut g);
        let loss = sasrec.loss(&mut g, &bind, &control, &mut step_rng);
        g.backward_into(loss, &mut ws);
        opt.step(sasrec.store_mut(), &bind, &mut ws);
    });

    p.note(format!(
        "batch {b} x {t} over {} items, {} users, d = {d}; control step 64 x 8 over {} items",
        prep.graph.num_items, prep.graph.num_users, corpus.num_items
    ));
    p.metric("core.model_build_ms", build_ms, "ms");
    p.metric("core.relation_encoder_fwd_ms", median(&rel), "ms");
    p.metric("core.augment_fwd_ms", median(&aug), "ms");
    p.metric("core.denoise_fwd_ms", median(&den), "ms");
    p.metric("models.backbone_fwd_ms", median(&bb), "ms");
    p.metric("models.score_loss_fwd_ms", median(&rest), "ms");
    p.metric("core.stage_coverage", median(&coverage), "ratio");
    p.metric("models.sasrec_step_ms", sasrec_ms, "ms");
    p.finish();
}
