//! The model table: how a named scenario becomes a trainable model.
//!
//! Every caller that only needs something the shared trainer can optimise —
//! the CLI's `train` and `recommend`, the table/figure harness, the
//! efficiency benches — builds it here, from a [`ModelKind`] and one
//! [`ModelContext`], and gets a `Box<dyn RecModel>`. The serving engine
//! holds a boxed model too, but three callers still construct a concrete
//! type, each for a bound the trait object does not carry:
//! - `denoise` needs SSDRec's `Denoiser::keep`;
//! - `serve --model` and `stream::materialize_model` need the concrete
//!   types behind `InferenceModel`'s catalogue bounds, which the probes
//!   also reach through `.into()`.

use ssdrec_data::{prepare, Dataset, Split};
use ssdrec_denoise::{DcRec, Dsan, FmlpRec, Hsd, Mgsd, Steam};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_models::{
    BackboneKind, ContrastiveSeqRec, RecModel, SeqRec, DEFAULT_AUG_RATE, DEFAULT_CL_TAU,
    DEFAULT_CL_WEIGHT,
};

use crate::model::{SsdRec, SsdRecConfig};

/// The trainable scenarios of the workspace: with the six backbones behind
/// [`ModelKind::Backbone`], fourteen models.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum ModelKind {
    /// The bare backbone of the context (Table III "w/o" columns).
    Backbone,
    /// SSDRec wrapped around the context's backbone.
    SsdRec,
    /// CL4SRec-style contrastive self-supervision on the context's backbone.
    Contrastive {
        /// Weight of the InfoNCE term in the joint loss.
        cl_weight: f32,
        /// InfoNCE temperature.
        cl_tau: f32,
        /// Fraction of a sequence each view augmentation touches.
        aug_rate: f32,
    },
    /// DSAN [23].
    Dsan,
    /// FMLP-Rec [28] (two filter layers, at most 50 positions).
    Fmlp,
    /// HSD [27].
    Hsd,
    /// DCRec [41]; the only kind that reads the context's item frequencies.
    DcRec,
    /// STEAM [29].
    Steam,
    /// MGSD-WSS multi-granularity weakly-supervised denoising.
    Mgsd,
}

impl ModelKind {
    /// The contrastive scenario at the workspace's default knobs.
    pub const CL4SREC: ModelKind = ModelKind::Contrastive {
        cl_weight: DEFAULT_CL_WEIGHT,
        cl_tau: DEFAULT_CL_TAU,
        aug_rate: DEFAULT_AUG_RATE,
    };

    /// The denoising baselines in the paper's Table IV row order, extended
    /// with the post-paper methods (CL4SRec, MGSD-WSS).
    pub const BASELINES: [ModelKind; 7] = [
        ModelKind::Dsan,
        ModelKind::Fmlp,
        ModelKind::Hsd,
        ModelKind::DcRec,
        ModelKind::Steam,
        ModelKind::CL4SREC,
        ModelKind::Mgsd,
    ];

    /// Whether building this kind reads [`ModelContext::graph`]: true for
    /// SSDRec alone. A caller whose kind does not read the graph may skip
    /// building one and pass `graph: None`.
    pub fn reads_graph(self) -> bool {
        matches!(self, ModelKind::SsdRec)
    }
}

/// Everything a constructor in the table may read.
#[derive(Copy, Clone)]
pub struct ModelContext<'a> {
    /// Users in the catalogue.
    pub num_users: usize,
    /// Real items in the catalogue (the pad item excluded).
    pub num_items: usize,
    /// Embedding width.
    pub dim: usize,
    /// Longest sequence a model must accept.
    pub max_len: usize,
    /// Parameter-init / sampling seed.
    pub seed: u64,
    /// The backbone of the [`Backbone`](ModelKind::Backbone),
    /// [`SsdRec`](ModelKind::SsdRec) and
    /// [`Contrastive`](ModelKind::Contrastive) kinds.
    pub backbone: BackboneKind,
    /// The multi-relation graph SSDRec's first stage encodes; `None` when
    /// no kind built from this context [reads it](ModelKind::reads_graph).
    pub graph: Option<&'a MultiRelationGraph>,
    /// Per-item interaction counts, index 0 the pad item
    /// ([`Dataset::item_frequencies`]); may be empty when
    /// [`ModelKind::DcRec`] is never built.
    pub item_freq: &'a [usize],
}

impl ModelContext<'_> {
    /// The SSDRec configuration this context implies: its width, length,
    /// backbone and seed over [`SsdRecConfig::default`].
    pub fn ssdrec_config(&self) -> SsdRecConfig {
        SsdRecConfig {
            dim: self.dim,
            max_len: self.max_len,
            backbone: self.backbone,
            seed: self.seed,
            ..SsdRecConfig::default()
        }
    }
}

/// Build the model `kind` names over `ctx`.
///
/// # Panics
/// If `kind` [reads the graph](ModelKind::reads_graph) and `ctx.graph` is
/// `None`.
pub fn build_model(kind: ModelKind, ctx: &ModelContext<'_>) -> Box<dyn RecModel> {
    let &ModelContext {
        num_users: nu,
        num_items: ni,
        dim,
        max_len,
        seed,
        backbone,
        ..
    } = ctx;
    match kind {
        ModelKind::Backbone => Box::new(SeqRec::new(backbone, ni, dim, max_len, seed)),
        ModelKind::SsdRec => {
            let graph = ctx.graph.unwrap_or_else(|| {
                panic!("{kind:?} reads the graph (ModelKind::reads_graph) but the context has none")
            });
            Box::new(SsdRec::new(graph, ctx.ssdrec_config()))
        }
        ModelKind::Contrastive {
            cl_weight,
            cl_tau,
            aug_rate,
        } => {
            let mut m = ContrastiveSeqRec::new(backbone, ni, dim, max_len, seed);
            (m.cl_weight, m.cl_tau, m.aug_rate) = (cl_weight, cl_tau, aug_rate);
            Box::new(m)
        }
        ModelKind::Dsan => Box::new(Dsan::new(ni, dim, seed)),
        ModelKind::Fmlp => Box::new(FmlpRec::new(ni, dim, max_len.min(50), 2, seed)),
        ModelKind::Hsd => Box::new(Hsd::new(nu, ni, dim, max_len, seed)),
        ModelKind::DcRec => Box::new(DcRec::new(ni, dim, max_len, ctx.item_freq, seed)),
        ModelKind::Steam => Box::new(Steam::new(ni, dim, max_len, seed)),
        ModelKind::Mgsd => Box::new(Mgsd::new(nu, ni, dim, max_len, seed)),
    }
}

/// An in-RAM experiment world: a dataset filtered, truncated and split, with
/// the graph and item statistics the model table reads.
pub struct Prepared {
    /// Filtered, truncated dataset.
    pub dataset: Dataset,
    /// Leave-one-out split.
    pub split: Split,
    /// Multi-relation graph over the filtered data.
    pub graph: MultiRelationGraph,
    /// Max length used.
    pub max_len: usize,
    /// Per-item interaction counts of `dataset`.
    pub item_freq: Vec<usize>,
}

impl Prepared {
    /// 5-core filter, truncate to `max_len` and split `raw` (at most
    /// `max_train_prefixes` training prefixes per user), then build the
    /// graph over what is left.
    pub fn new(raw: &Dataset, max_len: usize, max_train_prefixes: usize) -> Self {
        let (dataset, split) = prepare(raw, max_len, max_train_prefixes);
        let graph = build_graph(&dataset, &GraphConfig::default());
        let item_freq = dataset.item_frequencies();
        Prepared {
            dataset,
            split,
            graph,
            max_len,
            item_freq,
        }
    }

    /// The model context of this world at the given width, seed and backbone.
    pub fn context(&self, dim: usize, seed: u64, backbone: BackboneKind) -> ModelContext<'_> {
        ModelContext {
            num_users: self.dataset.num_users,
            num_items: self.dataset.num_items,
            dim,
            max_len: self.max_len,
            seed,
            backbone,
            graph: Some(&self.graph),
            item_freq: &self.item_freq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_data::SyntheticConfig;
    use ssdrec_models::{train, TrainConfig};

    fn tiny() -> (Prepared, TrainConfig) {
        let raw = SyntheticConfig::beauty()
            .scaled(0.06)
            .with_seed(3)
            .generate();
        let tc = TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..TrainConfig::default()
        };
        (Prepared::new(&raw, 20, 2), tc)
    }

    /// Name, final-loss bits and per-example test ranks of one training run.
    type Run = (String, u32, Vec<usize>);

    fn run<M: RecModel + ?Sized>(m: &mut M, prep: &Prepared, tc: &TrainConfig) -> Run {
        let report = train(m, &prep.split, tc);
        assert!(report.final_loss.is_finite(), "{} diverged", m.model_name());
        (
            m.model_name(),
            report.final_loss.to_bits(),
            report.test_ranks,
        )
    }

    /// Every entry of the table, trained through `Box<dyn RecModel>`, lands
    /// on the name, loss bits and test ranks of the same model built by hand
    /// and trained as its concrete type.
    #[test]
    fn table_builds_all_fourteen_models_and_boxing_changes_no_bit() {
        let (prep, tc) = tiny();
        let (nu, ni, l) = (prep.dataset.num_users, prep.dataset.num_items, prep.max_len);
        let (d, s, sas, f) = (8, 11, BackboneKind::SasRec, &prep.item_freq);
        let cfg = prep.context(d, s, sas).ssdrec_config();
        let w = (&prep, &tc);
        fn hand<M: RecModel>(mut m: M, w: (&Prepared, &TrainConfig)) -> Run {
            run(&mut m, w.0, w.1)
        }

        let mut by_hand: Vec<(ModelKind, BackboneKind, Run)> = BackboneKind::all()
            .map(|bb| {
                (
                    ModelKind::Backbone,
                    bb,
                    hand(SeqRec::new(bb, ni, d, l, s), w),
                )
            })
            .to_vec();
        by_hand.extend([
            (
                ModelKind::SsdRec,
                sas,
                hand(SsdRec::new(&prep.graph, cfg), w),
            ),
            (
                ModelKind::CL4SREC,
                sas,
                hand(ContrastiveSeqRec::new(sas, ni, d, l, s), w),
            ),
            (ModelKind::Dsan, sas, hand(Dsan::new(ni, d, s), w)),
            (ModelKind::Fmlp, sas, hand(FmlpRec::new(ni, d, l, 2, s), w)),
            (ModelKind::Hsd, sas, hand(Hsd::new(nu, ni, d, l, s), w)),
            (ModelKind::DcRec, sas, hand(DcRec::new(ni, d, l, f, s), w)),
            (ModelKind::Steam, sas, hand(Steam::new(ni, d, l, s), w)),
            (ModelKind::Mgsd, sas, hand(Mgsd::new(nu, ni, d, l, s), w)),
        ]);
        assert_eq!(by_hand.len(), 14);

        for (kind, bb, want) in by_hand {
            let ctx = prep.context(d, s, bb);
            let mut boxed = build_model(kind, &ctx);
            let got = run(&mut *boxed, &prep, &tc);
            assert_eq!(got, want, "{kind:?}/{bb:?} differs from its concrete type");
            if !kind.reads_graph() {
                let graphless = ModelContext { graph: None, ..ctx };
                let got = run(&mut *build_model(kind, &graphless), &prep, &tc);
                assert_eq!(got, want, "{kind:?}/{bb:?} differs without the graph");
            }
        }
    }

    #[test]
    #[should_panic(expected = "reads_graph")]
    fn a_graph_reader_over_no_graph_names_reads_graph() {
        let (prep, _) = tiny();
        let ctx = ModelContext {
            graph: None,
            ..prep.context(8, 11, BackboneKind::SasRec)
        };
        build_model(ModelKind::SsdRec, &ctx);
    }

    #[test]
    fn contrastive_knobs_reach_the_model() {
        // A zero InfoNCE weight must train differently from the default one.
        let (prep, tc) = tiny();
        let ctx = prep.context(8, 11, BackboneKind::Gru4Rec);
        let loss = |kind| run(&mut *build_model(kind, &ctx), &prep, &tc).1;
        let no_cl = ModelKind::Contrastive {
            cl_weight: 0.0,
            cl_tau: DEFAULT_CL_TAU,
            aug_rate: DEFAULT_AUG_RATE,
        };
        assert_ne!(loss(ModelKind::CL4SREC), loss(no_cl));
    }
}
