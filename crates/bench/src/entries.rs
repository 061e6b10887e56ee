//! The experiment table: one module per entry, one row per module.

mod data_scale;
mod ext_beyond_accuracy;
mod ext_encoder;
mod ext_keep_rule;
mod ext_length;
mod fig1;
mod fig4;
mod fig5;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

use crate::Entry;

const fn entry(name: &'static str, what: &'static str, run: fn(&crate::Args)) -> Entry {
    Entry { name, what, run }
}

/// Every entry, in the order `all` runs them. Reports land in `results/`.
#[rustfmt::skip]
pub(crate) const ENTRIES: [Entry; 13] = [
    entry("table2", "Table II: dataset statistics vs the paper's [--datasets]", table2::run),
    entry("table3", "Table III: six backbones with and without SSDRec [--datasets --models]", table3::run),
    entry("table4", "Table IV: SSDRec vs seven denoising baselines; --fast also writes table4_fast.json [--datasets]", table4::run),
    entry("table5", "Table V: stage-wise ablation [--datasets, default ml-100k,beauty]", table5::run),
    entry("table6", "Table VI: per-epoch train / inference seconds [--datasets]", table6::run),
    entry("fig1", "Fig. 1: over/under-denoising of HSD, STEAM, SSDRec on noise-labelled ML-100K [--sweep-insert]", fig1::run),
    entry("fig4", "Fig. 4: per-user three-stage case study on ML-100K [--users]", fig4::run),
    entry("fig5", "Fig. 5: initial Gumbel temperature sweep [--datasets, default ml-100k,beauty]", fig5::run),
    entry("ext-encoder", "relation encoder: directed attention vs untyped mean [--datasets, default beauty,yelp]", ext_encoder::run),
    entry("ext-keep-rule", "stage-3 keep rule: beta x kappa sweep, accuracy and OUP on noise-labelled ML-100K", ext_keep_rule::run),
    entry("ext-beyond-accuracy", "coverage, Gini, popularity bias: SASRec vs SSDRec [--datasets, default beauty,sports]", ext_beyond_accuracy::run),
    entry("ext-length", "HR@20 by history length: SASRec vs SSDRec [--datasets, default ml-100k,beauty]", ext_length::run),
    entry("data-scale", "out-of-core pipeline at 1M users x 100K items under an asserted 8 GiB peak RSS (--fast: 2K x 1K smoke)", data_scale::run),
];
