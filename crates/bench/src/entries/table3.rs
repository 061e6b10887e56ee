//! Table III: every backbone with (w) and without (w/o) SSDRec, on every
//! dataset, reporting HR@{5,10,20}, NDCG@{5,10,20}, MRR and the average
//! relative improvement.

use crate::{
    metric_csv, metric_header, metric_row, prepare_profile, run_model, run_ssdrec, write_results,
    Args, DATASETS,
};
use ssdrec_core::ModelKind;

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    let mut csv = Vec::new();
    for ds in a.datasets(&DATASETS) {
        let prep = prepare_profile(ds, h);
        println!(
            "\n=== Table III — {ds} ({} test users) ===",
            prep.split.test.len()
        );
        println!("{}", metric_header());
        for kind in &a.models {
            let (_, base) = run_model(ModelKind::Backbone, *kind, &prep, h);
            println!(
                "{}",
                metric_row(&format!("{} (w/o)", kind.name()), &base.test)
            );
            csv.push(metric_csv(ds, &format!("{}-wo", kind.name()), &base.test));

            let (_m, with) = run_ssdrec(*kind, &prep, h);
            println!(
                "{}",
                metric_row(&format!("{} (w)", kind.name()), &with.test)
            );
            csv.push(metric_csv(ds, &format!("{}-w", kind.name()), &with.test));

            let imp = with.test.improvement_over(&base.test);
            println!("{:<18} {:>+8.2}%", "  improvement", imp);
        }
    }
    write_results(
        "table3_backbones.csv",
        "dataset,model,hr5,hr10,hr20,ndcg5,ndcg10,ndcg20,mrr20",
        &csv,
    );
}
