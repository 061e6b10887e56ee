//! # ssdrec-data
//!
//! Datasets and preprocessing for the SSDRec reproduction: a cluster-Markov
//! synthetic generator matching the paper's five dataset profiles (Table II),
//! k-core filtering, leave-one-out splitting, length-bucketed batching and
//! noise injection for the Fig. 1 OUP experiment.
//!
//! Real datasets (MovieLens, Amazon, Yelp) are substituted by scaled
//! synthetic analogues; see the workspace `DESIGN.md` for the rationale.

#![warn(missing_docs)]

pub mod batch;
pub mod colfile;
pub mod format;
pub mod interaction;
pub mod loader;
pub mod noise;
pub mod preprocess;
pub mod store;
pub mod synthetic;

pub use batch::{
    make_batches, plan_batches, Batch, BatchIter, BatchPlan, BatchSource, StoreExamples,
};
pub use colfile::{encode_dataset, ColumnarReader, ColumnarSummary, ColumnarWriter};
pub use format::{FormatError, MAX_CATALOG};
pub use interaction::{Dataset, Example, Interaction, Split, PAD_ITEM};
pub use loader::{
    load_interactions, load_to_columnar, parse_interactions, parse_interactions_to_columnar,
    LoadError, LoadOptions,
};
pub use noise::inject_unobserved;
pub use preprocess::{k_core_filter, leave_one_out, plan_leave_one_out, truncate_to_max_len};
pub use store::{ExampleRef, SequenceStore, SplitPlan, TruncatedStore};
pub use synthetic::{item_cluster, SyntheticConfig};

/// Run the paper's full preprocessing pipeline on a dataset: 5-core filter,
/// truncate to `max_len`, leave-one-out split with a per-user prefix cap.
pub fn prepare(ds: &Dataset, max_len: usize, max_train_prefixes: usize) -> (Dataset, Split) {
    let (mut filtered, _) = k_core_filter(ds, 5, 5);
    truncate_to_max_len(&mut filtered, max_len);
    let split = leave_one_out(&filtered, 5, max_train_prefixes);
    (filtered, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_runs_end_to_end() {
        let ds = SyntheticConfig::beauty().generate();
        let (filtered, split) = prepare(&ds, 50, 3);
        assert!(filtered.num_items > 0);
        assert!(!split.test.is_empty());
        assert!(split.train.len() >= split.test.len());
    }
}
