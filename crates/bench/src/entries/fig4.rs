//! Fig. 4: the explainability case study — for sampled test users, show the
//! raw sequence, the items the self-augmenter inserts (blue circles in the
//! paper), the positions the denoiser removes (red circles), and how the
//! true next item's score evolves raw → augmented → denoised.

use crate::{prepare_profile, run_ssdrec, write_results, Args};
use ssdrec_data::Example;
use ssdrec_denoise::keep_each;
use ssdrec_models::BackboneKind;
use ssdrec_tensor::Rng;

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    let prep = prepare_profile("ml-100k", h);
    let (model, report) = run_ssdrec(BackboneKind::SasRec, &prep, h);
    println!(
        "trained SSDRec on ml-100k: test HR@20 {:.4}\n",
        report.test.hr20
    );

    // Compact sequences, like the paper's 6-item view.
    let traced: Vec<Example> = prep
        .split
        .test
        .iter()
        .filter(|ex| (5..=12).contains(&ex.seq.len()))
        .take(a.users.max(1))
        .cloned()
        .collect();
    let mut csv = Vec::new();
    for (ex, cs) in traced
        .iter()
        .zip(model.explain(&traced, &mut Rng::seed(h.seed)))
    {
        println!("=== user {} (next item {}) ===", ex.user, ex.target);
        println!("raw sequence : {:?}", cs.seq);
        if let (Some(p), Some((l, r))) = (cs.position, cs.inserted) {
            println!("augmentation : insert items {l} (left) / {r} (right) around position {p}");
        }
        let removed: Vec<usize> = cs
            .kept
            .iter()
            .enumerate()
            .filter(|(_, &k)| !k)
            .map(|(i, _)| cs.seq[i])
            .collect();
        println!("removed items: {removed:?}");
        println!(
            "target score : raw {:.3} → augmented {:.3} → denoised {:.3}\n",
            cs.raw_score, cs.augmented_score, cs.denoised_score
        );
        csv.push(format!(
            "{},{},{:.4},{:.4},{:.4},{}",
            ex.user,
            ex.target,
            cs.raw_score,
            cs.augmented_score,
            cs.denoised_score,
            removed.len()
        ));
    }

    // The paper also reports overall drop ratios per dataset (§IV-E).
    let mut dropped = 0usize;
    let mut total = 0usize;
    let test = &prep.split.test;
    for keep in keep_each(&model, &test[..test.len().min(200)]) {
        dropped += keep.kept.iter().filter(|&&k| !k).count();
        total += keep.kept.len();
    }
    if total > 0 {
        println!(
            "overall drop ratio on ml-100k test histories: {:.2}% (paper: 24.22%)",
            100.0 * dropped as f64 / total as f64
        );
    }

    write_results(
        "fig4_case_study.csv",
        "user,target,raw_score,augmented_score,denoised_score,n_removed",
        &csv,
    );
}
