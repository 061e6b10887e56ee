//! Quickstart: train SSDRec end-to-end on a synthetic Amazon-Beauty-like
//! dataset and print the paper's standard metric row.
//!
//! Run with: `cargo run --release --example quickstart`

use ssdrec::core::{SsdRec, SsdRecConfig};
use ssdrec::data::{prepare, SyntheticConfig};
use ssdrec::denoise::keep_each;
use ssdrec::graph::{build_graph, GraphConfig};
use ssdrec::models::{train, BackboneKind, TrainConfig};

fn main() {
    // 1. Data: a scaled Amazon-Beauty analogue with 10% planted noise.
    let raw = SyntheticConfig::beauty().scaled(0.3).generate();
    println!(
        "dataset {}: {} users, {} items, {} actions (avg len {:.1})",
        raw.name,
        raw.num_users,
        raw.num_items,
        raw.num_actions(),
        raw.avg_len()
    );

    // 2. Preprocess: 5-core filter, truncate to 50, leave-one-out split.
    let (dataset, split) = prepare(&raw, 50, 3);
    println!(
        "after 5-core filtering: {} items, {} train / {} valid / {} test examples",
        dataset.num_items,
        split.train.len(),
        split.valid.len(),
        split.test.len()
    );

    // 3. The multi-relation graph G (paper §III-A) — stage-1 prior knowledge.
    let graph = build_graph(&dataset, &GraphConfig::default());
    println!(
        "multi-relation graph: {} edges across 5 relation types",
        graph.total_edges()
    );

    // 4. SSDRec with a SASRec backbone.
    let cfg = SsdRecConfig {
        dim: 16,
        max_len: 50,
        backbone: BackboneKind::SasRec,
        ..SsdRecConfig::default()
    };
    let mut model = SsdRec::new(&graph, cfg);

    // 5. Train with early stopping on validation HR@20.
    let tc = TrainConfig {
        epochs: 12,
        batch_size: 64,
        patience: 4,
        verbose: true,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &split, &tc);

    println!("\ntrained {} epochs (early stopping)", report.epochs_run);
    println!("valid: {}", report.valid);
    println!("test : {}", report.test);

    // 6. Inspect the denoiser on one test user.
    let ex = &split.test[0];
    let keep = keep_each(&model, std::slice::from_ref(ex)).remove(0);
    let dropped: Vec<usize> = ex
        .seq
        .iter()
        .zip(&keep.kept)
        .filter(|(_, &k)| !k)
        .map(|(&it, _)| it)
        .collect();
    println!(
        "\nuser {}: sequence {:?}\n         denoiser drops {:?}",
        ex.user, ex.seq, dropped
    );
}
