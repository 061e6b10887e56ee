//! Extension ablation (DESIGN.md §5.5): Eq. 2's attention-weighted directed
//! aggregation vs an untyped mean in the global relation encoder.

use crate::{metric_header, metric_row, prepare_profile, run_ssdrec_with, write_results, Args};
use ssdrec_models::BackboneKind;

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    let mut csv = Vec::new();
    for ds in a.datasets(&["beauty", "yelp"]) {
        let prep = prepare_profile(ds, h);
        println!("\n=== relation-encoder ablation — {ds} ===");
        println!("{}", metric_header());
        for (label, use_att) in [("directed attention", true), ("untyped mean", false)] {
            let (_m, report) = run_ssdrec_with(BackboneKind::SasRec, &prep, h, |c| {
                c.relation_attention = use_att;
            });
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
