//! Extension experiment (not in the paper): beyond-accuracy effects of
//! denoising. Accidental interactions disproportionately hit popular items,
//! so removing them should reduce popularity bias and exposure concentration
//! in the served recommendations. Compares the bare backbone against SSDRec
//! on catalogue coverage, Gini concentration and popularity bias of top-10
//! lists.

use crate::{prepare_profile, run_model, run_ssdrec, write_results, Args};
use ssdrec_core::{ModelKind, Prepared};
use ssdrec_metrics::RecListAccumulator;
use ssdrec_models::{recommend_each, BackboneKind, RecModel};

fn measure<M: RecModel + ?Sized>(model: &M, prep: &Prepared, k: usize) -> (f64, f64, f64) {
    let mut acc = RecListAccumulator::new(prep.dataset.num_items);
    let test = &prep.split.test;
    for (ex, list) in test.iter().zip(recommend_each(model, test, k)) {
        if ex.seq.is_empty() {
            continue;
        }
        let items: Vec<usize> = list.into_iter().map(|(i, _)| i).collect();
        acc.push(&items);
    }
    (
        acc.coverage(),
        acc.gini(),
        acc.popularity_bias(&prep.item_freq),
    )
}

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    let k = 10;

    println!("Beyond-accuracy comparison (top-{k} lists on the test users)");
    println!(
        "{:<10} {:<14} {:>9} {:>7} {:>10}",
        "dataset", "model", "coverage", "gini", "pop.bias"
    );
    let mut csv = Vec::new();
    for ds in a.datasets(&["beauty", "sports"]) {
        let prep = prepare_profile(ds, h);

        // Bare SASRec.
        let (base, _) = run_model(ModelKind::Backbone, BackboneKind::SasRec, &prep, h);
        let (c, g, p) = measure(&*base, &prep, k);
        println!("{ds:<10} {:<14} {c:>9.3} {g:>7.3} {p:>10.2}", "SASRec");
        csv.push(format!("{ds},SASRec,{c:.4},{g:.4},{p:.4}"));

        // SASRec inside SSDRec.
        let (model, _report) = run_ssdrec(BackboneKind::SasRec, &prep, h);
        let (c, g, p) = measure(&model, &prep, k);
        println!(
            "{ds:<10} {:<14} {c:>9.3} {g:>7.3} {p:>10.2}",
            "SSDRec[SASRec]"
        );
        csv.push(format!("{ds},SSDRec,{c:.4},{g:.4},{p:.4}"));
    }
    write_results(
        "ext_beyond_accuracy.csv",
        "dataset,model,coverage,gini,popularity_bias",
        &csv,
    );
}
