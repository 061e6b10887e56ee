//! Extension ablation (DESIGN.md §5.2): sweep the stage-3 keep rule's
//! relative threshold β and calibration sharpness κ, reporting accuracy and
//! OUP on a noise-labelled ML-100K profile. Shows the precision/recall
//! trade-off of explicit denoising: higher β removes more noise but drops
//! more clean items.
//!
//! Usage: `cargo run --release -p ssdrec-bench --bin ext_ablation_keep_rule [--full]`

use ssdrec_bench::{write_results, HarnessConfig};
use ssdrec_core::{Prepared, SsdRec, SsdRecConfig};
use ssdrec_data::{inject_unobserved, SyntheticConfig};
use ssdrec_denoise::Denoiser;
use ssdrec_metrics::OupAccumulator;
use ssdrec_models::{train, BackboneKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut h = HarnessConfig::from_args(&args);
    h.epochs = h.epochs.max(12);
    h.patience = h.patience.max(12);

    let raw = SyntheticConfig::ml100k()
        .scaled(h.scale)
        .with_noise_ratio(0.0)
        .with_seed(h.seed)
        .generate();
    let noisy = inject_unobserved(&raw, 60, 2, h.seed);
    let prep = Prepared::new(&noisy, 50, h.max_train_prefixes);
    let (split, ctx) = (
        &prep.split,
        prep.context(h.dim, h.seed, BackboneKind::SasRec),
    );

    println!(
        "{:>5} {:>6} {:>8} {:>8} {:>8}",
        "beta", "kappa", "HR@20", "under", "over"
    );
    let mut csv = Vec::new();
    for &beta in &[0.4f32, 0.6, 0.8] {
        for &kappa in &[4.0f32, 8.0, 16.0] {
            let cfg = SsdRecConfig {
                keep_beta: beta,
                keep_kappa: kappa,
                ..ctx.ssdrec_config()
            };
            let mut model = SsdRec::new(&prep.graph, cfg);
            let report = train(&mut model, split, &h.train_config());

            let mut acc = OupAccumulator::new();
            for ex in &split.test {
                let Some(noise) = &ex.noise else { continue };
                if ex.seq.is_empty() {
                    continue;
                }
                acc.push(noise, &model.keep_decisions(&ex.seq, ex.user));
            }
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
