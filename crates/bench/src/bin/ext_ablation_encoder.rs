//! Extension ablation (DESIGN.md §6.2): Eq. 2's attention-weighted directed
//! aggregation vs an untyped mean in the global relation encoder.
//!
//! Usage: `cargo run --release -p ssdrec-bench --bin ext_ablation_encoder [--full]`

use ssdrec_bench::{metric_header, metric_row, prepare_profile, write_results, HarnessConfig};
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_models::{train, BackboneKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = HarnessConfig::from_args(&args);

    let mut csv = Vec::new();
    for ds in ["beauty", "yelp"] {
        let prep = prepare_profile(ds, &h);
        println!("\n=== relation-encoder ablation — {ds} ===");
        println!("{}", metric_header());
        for (label, use_att) in [("directed attention", true), ("untyped mean", false)] {
            let cfg = SsdRecConfig {
                relation_attention: use_att,
                ..prep
                    .context(h.dim, h.seed, BackboneKind::SasRec)
                    .ssdrec_config()
            };
            let mut model = SsdRec::new(&prep.graph, cfg);
            let report = train(&mut model, &prep.split, &h.train_config());
            println!("{}", metric_row(label, &report.test));
            csv.push(format!(
                "{ds},{},{:.6},{:.6},{:.6}",
                if use_att { "attention" } else { "mean" },
                report.test.hr20,
                report.test.ndcg20,
                report.test.mrr20
            ));
        }
    }
    write_results(
        "ext_ablation_encoder.csv",
        "dataset,aggregation,hr20,ndcg20,mrr20",
        &csv,
    );
}
