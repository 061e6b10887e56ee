//! Fig. 1: the over/under-denoising problem (OUP) of HSD and STEAM on
//! ML-100K, with SSDRec added for contrast.
//!
//! Following the paper: unobserved interactions are randomly inserted into
//! raw short sequences as ground-truth noise; after training each denoiser
//! on the noisy data, the kept-noise fraction (under-denoising) and
//! dropped-raw fraction (over-denoising) are measured from its explicit
//! keep/drop decisions.
//!
//! `--sweep-insert` additionally sweeps the number of inserted items
//! (the insertion-count trade-off ablation).

use crate::{noisy_ml100k, oup, write_results, Args, HarnessConfig};
use ssdrec_core::SsdRec;
use ssdrec_denoise::{keep_each, Denoiser, Hsd, Steam};
use ssdrec_models::{train, BackboneKind};

/// Returns (under-denoising ratio, over-denoising ratio, mean keep score on
/// noise positions, mean keep score on clean positions). The score gap is a
/// threshold-free view of how well the denoiser separates injected noise.
fn measure(model: &dyn Denoiser, split: &ssdrec_data::Split) -> (f64, f64, f64, f64) {
    let keeps = keep_each(model, &split.test);
    let acc = oup(&split.test, &keeps);
    let (mut ns, mut nn, mut cs, mut nc) = (0.0f64, 0usize, 0.0f64, 0usize);
    for (ex, keep) in split.test.iter().zip(&keeps) {
        let Some(noise) = &ex.noise else { continue };
        for (&is_noise, &s) in noise.iter().zip(&keep.scores) {
            if is_noise {
                ns += s as f64;
                nn += 1;
            } else {
                cs += s as f64;
                nc += 1;
            }
        }
    }
    (
        acc.under_denoising_ratio(),
        acc.over_denoising_ratio(),
        if nn > 0 { ns / nn as f64 } else { 0.0 },
        if nc > 0 { cs / nc as f64 } else { 0.0 },
    )
}

fn run_one(per_seq: usize, h: &HarnessConfig, csv: &mut Vec<String>) {
    let prep = noisy_ml100k(h, per_seq);
    let ctx = prep.context(h.dim, h.seed, BackboneKind::SasRec);
    let (nu, ni) = (ctx.num_users, ctx.num_items);

    println!("\n--- Fig. 1 (inserted per short sequence: {per_seq}) ---");
    println!(
        "{:<10} {:>16} {:>16} {:>12} {:>12}",
        "model", "under-denoising", "over-denoising", "score|noise", "score|clean"
    );

    // Built directly, not from the model table: the measurement needs
    // each model's keep/drop decisions.
    let models: [(&str, Box<dyn Denoiser>); 3] = [
        ("HSD", Box::new(Hsd::new(nu, ni, h.dim, 50, h.seed))),
        ("STEAM", Box::new(Steam::new(ni, h.dim, 50, h.seed))),
        (
            "SSDRec",
            Box::new(SsdRec::new(&prep.graph, ctx.ssdrec_config())),
        ),
    ];
    for (name, mut model) in models {
        train(&mut *model, &prep.split, &h.train_config());
        let (u, o, sn, sc) = measure(&*model, &prep.split);
        println!("{name:<10} {u:>16.4} {o:>16.4} {sn:>12.4} {sc:>12.4}");
        csv.push(format!("{per_seq},{name},{u:.6},{o:.6},{sn:.6},{sc:.6}"));
    }
}

pub(crate) fn run(a: &Args) {
    let h = a.h.past_warm_up();
    let mut csv = Vec::new();
    let inserted: &[usize] = if a.sweep_insert { &[1, 2, 4] } else { &[2] };
    for &per_seq in inserted {
        run_one(per_seq, &h, &mut csv);
    }
    write_results(
        "fig1_oup.csv",
        "inserted_per_seq,model,under_ratio,over_ratio,score_noise,score_clean",
        &csv,
    );
}
