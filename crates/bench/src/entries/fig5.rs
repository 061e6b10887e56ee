//! Fig. 5: sensitivity of SSDRec to the initial Gumbel temperature τ,
//! sweeping τ ∈ {1e-2, 1e-1, 1, 10, 1e2, 1e3} and reporting HR@20, NDCG@20
//! and MRR per dataset.

use crate::{prepare_profile, run_ssdrec_with, write_results, Args};
use ssdrec_models::BackboneKind;

const TAUS: [f32; 6] = [1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3];

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    let mut csv = Vec::new();
    // Default to the two ends of the paper's size spectrum to keep the
    // quick run bounded; pass --datasets for the full five.
    for ds in a.datasets(&["ml-100k", "beauty"]) {
        let prep = prepare_profile(ds, h);
        println!("\n=== Fig. 5 — τ sensitivity on {ds} ===");
        println!("{:>10} {:>8} {:>8} {:>8}", "tau", "HR@20", "N@20", "MRR");
        for &tau in &TAUS {
            let (_m, report) = run_ssdrec_with(BackboneKind::SasRec, &prep, h, |c| c.tau = tau);
            println!(
                "{tau:>10.0e} {:>8.4} {:>8.4} {:>8.4}",
                report.test.hr20, report.test.ndcg20, report.test.mrr20
            );
            csv.push(format!(
                "{ds},{tau},{:.6},{:.6},{:.6}",
                report.test.hr20, report.test.ndcg20, report.test.mrr20
            ));
        }
    }
    write_results("fig5_tau.csv", "dataset,tau,hr20,ndcg20,mrr20", &csv);
}
