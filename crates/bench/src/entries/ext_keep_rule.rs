//! Extension ablation (DESIGN.md §5.5): sweep the stage-3 keep rule's
//! relative threshold β and calibration sharpness κ, reporting accuracy and
//! OUP on a noise-labelled ML-100K profile. Shows the precision/recall
//! trade-off of explicit denoising: higher β removes more noise but drops
//! more clean items.

use crate::{noisy_ml100k, oup, run_ssdrec_with, write_results, Args};
use ssdrec_denoise::keep_each;
use ssdrec_models::BackboneKind;

pub(crate) fn run(a: &Args) {
    let h = a.h.past_warm_up();
    let prep = noisy_ml100k(&h, 2);

    println!(
        "{:>5} {:>6} {:>8} {:>8} {:>8}",
        "beta", "kappa", "HR@20", "under", "over"
    );
    let mut csv = Vec::new();
    for &beta in &[0.4f32, 0.6, 0.8] {
        for &kappa in &[4.0f32, 8.0, 16.0] {
            let (model, report) = run_ssdrec_with(BackboneKind::SasRec, &prep, &h, |c| {
                (c.keep_beta, c.keep_kappa) = (beta, kappa);
            });
            let test = &prep.split.test;
            let acc = oup(test, &keep_each(&model, test));
            println!(
                "{beta:>5.1} {kappa:>6.0} {:>8.4} {:>8.4} {:>8.4}",
                report.test.hr20,
                acc.under_denoising_ratio(),
                acc.over_denoising_ratio()
            );
            csv.push(format!(
                "{beta},{kappa},{:.6},{:.6},{:.6}",
                report.test.hr20,
                acc.under_denoising_ratio(),
                acc.over_denoising_ratio()
            ));
        }
    }
    write_results(
        "ext_ablation_keep_rule.csv",
        "beta,kappa,hr20,under_ratio,over_ratio",
        &csv,
    );
}
