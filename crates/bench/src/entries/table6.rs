//! Table VI: per-epoch training and inference wall-clock (seconds) for HSD,
//! STEAM, DCRec and SSDRec on every dataset.
//!
//! Absolute numbers differ from the paper (single CPU core vs an RTX 8000);
//! the *relationships* are what this reproduces: SSDRec's training epoch is
//! the most expensive of the explicit methods (it contains HSD plus two
//! extra stages), while its inference adds no augmentation cost.

use crate::{prepare_profile, write_results, Args, DATASETS};
use ssdrec_core::{build_model, ModelKind};
use ssdrec_models::{train, BackboneKind, TrainConfig};

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    println!("Table VI — per-epoch training / inference seconds");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}   (train | infer)",
        "dataset", "HSD", "STEAM", "DCRec", "SSDRec"
    );

    let mut csv = Vec::new();
    for ds in a.datasets(&DATASETS) {
        let prep = prepare_profile(ds, h);
        let ctx = prep.context(h.dim, h.seed, BackboneKind::SasRec);
        // One epoch is the measurement: no need to converge.
        let tc = TrainConfig {
            epochs: 1,
            patience: 10,
            ..h.train_config()
        };
        let measure = |kind| {
            let report = train(&mut *build_model(kind, &ctx), &prep.split, &tc);
            (report.train_secs_per_epoch, report.infer_secs)
        };
        let (hsd_t, hsd_i) = measure(ModelKind::Hsd);
        let (steam_t, steam_i) = measure(ModelKind::Steam);
        let (dcrec_t, dcrec_i) = measure(ModelKind::DcRec);
        let (ssd_t, ssd_i) = measure(ModelKind::SsdRec);

        println!(
            "{ds:<10} {hsd_t:>6.2}|{hsd_i:<5.2} {steam_t:>6.2}|{steam_i:<5.2} {dcrec_t:>6.2}|{dcrec_i:<5.2} {ssd_t:>6.2}|{ssd_i:<5.2}"
        );
        csv.push(format!(
            "{ds},{hsd_t:.4},{hsd_i:.4},{steam_t:.4},{steam_i:.4},{dcrec_t:.4},{dcrec_i:.4},{ssd_t:.4},{ssd_i:.4}"
        ));
    }
    write_results(
        "table6_efficiency.csv",
        "dataset,hsd_train,hsd_infer,steam_train,steam_infer,dcrec_train,dcrec_infer,ssdrec_train,ssdrec_infer",
        &csv,
    );
}
