//! Extension experiment: where do SSDRec's gains come from? The paper argues
//! denoising from intra-sequence information is least reliable on *short*
//! sequences and that self-augmentation targets exactly those. This entry
//! buckets the test users by history length and reports SASRec vs SSDRec per
//! bucket — the gains should concentrate in the short buckets.

use crate::{prepare_profile, run_model, run_ssdrec, write_results, Args};
use ssdrec_core::ModelKind;
use ssdrec_data::make_batches;
use ssdrec_metrics::{full_rank, LengthBuckets};
use ssdrec_models::{BackboneKind, FrozenPass, RecModel};
use ssdrec_tensor::Graph;

fn bucketed<M: RecModel + ?Sized>(model: &M, split: &ssdrec_data::Split) -> LengthBuckets {
    let mut buckets = LengthBuckets::short_medium_long();
    let mut g = Graph::new();
    let mut pass = FrozenPass::new(model, &mut g);
    for batch in make_batches(&split.test, 64, 0) {
        pass.run(|g, bind, frozen| {
            let scores = model.eval_scores_frozen(g, bind, &batch, frozen);
            let sv = g.value(scores);
            let v = sv.shape()[1];
            for (row, &target) in sv.data().chunks(v).zip(&batch.targets) {
                buckets.push(batch.seq_len, full_rank(row, target));
            }
        });
    }
    buckets
}

pub(crate) fn run(a: &Args) {
    let h = &a.h;
    let mut csv = Vec::new();
    for ds in a.datasets(&["ml-100k", "beauty"]) {
        let prep = prepare_profile(ds, h);

        let (base, _) = run_model(ModelKind::Backbone, BackboneKind::SasRec, &prep, h);
        let base_b = bucketed(&*base, &prep.split);

        let (model, _) = run_ssdrec(BackboneKind::SasRec, &prep, h);
        let ssd_b = bucketed(&model, &prep.split);

        println!("\n=== {ds}: HR@20 by history length ===");
        println!(
            "{:<10} {:>6} {:>10} {:>10} {:>10}",
            "bucket", "n", "SASRec", "SSDRec", "Δ"
        );
        for i in 0..base_b.num_buckets() {
            let n = base_b.count(i);
            if n == 0 {
                continue;
            }
            let b = base_b.report(i).hr20;
            let s = ssd_b.report(i).hr20;
            println!(
                "{:<10} {n:>6} {b:>10.4} {s:>10.4} {:>+10.4}",
                base_b.label(i),
                s - b
            );
            csv.push(format!("{ds},{},{n},{b:.6},{s:.6}", base_b.label(i)));
        }
    }
    write_results(
        "ext_length_breakdown.csv",
        "dataset,bucket,n,sasrec_hr20,ssdrec_hr20",
        &csv,
    );
}
