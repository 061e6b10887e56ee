//! Table V: the stage-wise ablation on the ML-100K profile —
//! w/o SSDRec-1 (stages 2+3), w/o SSDRec-2 (stages 1+3 = "HSD + global
//! relations"), w/o SSDRec-3 (stages 1+2), plain HSD, and full SSDRec.

use crate::{
    metric_csv, metric_header, metric_row, prepare_profile, run_model, run_ssdrec_with,
    write_results, Args,
};
use ssdrec_core::ModelKind;
use ssdrec_models::BackboneKind;

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    // The paper runs this table on ML-100K only; we default to ML-100K plus
    // Beauty so both sequence-length regimes are covered (stage 2 only
    // fires on short sequences). Pass --datasets to override.
    let datasets = a.datasets(&["ml-100k", "beauty"]);

    let variants: [(&str, (bool, bool, bool)); 4] = [
        ("w/o SSDRec-1", (false, true, true)),
        ("w/o SSDRec-2", (true, false, true)),
        ("w/o SSDRec-3", (true, true, false)),
        ("SSDRec", (true, true, true)),
    ];

    let mut csv = Vec::new();
    for ds in datasets {
        let prep = prepare_profile(ds, h);
        println!("\n=== Table V — ablation on {ds} ===");
        println!("{}", metric_header());

        // Plain HSD as the reference row (paper includes it).
        let (_, hsd) = run_model(ModelKind::Hsd, BackboneKind::SasRec, &prep, h);
        println!("{}", metric_row("HSD", &hsd.test));
        csv.push(metric_csv(ds, "HSD", &hsd.test));

        for (name, stages) in variants {
            let (_m, report) = run_ssdrec_with(BackboneKind::SasRec, &prep, h, |c| {
                (c.stage1, c.stage2, c.stage3) = stages;
            });
            println!("{}", metric_row(name, &report.test));
            csv.push(metric_csv(ds, name, &report.test));
        }
    }
    write_results(
        "table5_ablation.csv",
        "dataset,variant,hr5,hr10,hr20,ndcg5,ndcg10,ndcg20,mrr20",
        &csv,
    );
}
