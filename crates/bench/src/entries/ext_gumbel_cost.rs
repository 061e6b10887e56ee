//! Extension ablation (DESIGN.md §5.5): straight-through hard Gumbel vs the
//! soft relaxation inside the position selector — cost of the hard path at
//! several vocabulary widths, and of the full augmentation step at several
//! sequence lengths. Mean wall-clock per call over a fixed iteration count.

use std::hint::black_box;

use ssdrec_core::SelfAugmenter;
use ssdrec_tensor::nn::{gumbel_softmax, GumbelMode};
use ssdrec_tensor::{Graph, ParamStore, Rng, Tensor};

use crate::{timed, write_results, Args, Scale};

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(0.01, 1.0)).collect(), shape)
}

pub(crate) fn run(a: &Args) {
    let iters = match a.scale {
        Scale::Fast => 1,
        Scale::Quick => 200,
        Scale::Full => 2_000,
    };
    println!("Gumbel / augmentation cost, mean of {iters} call(s)");
    println!("{:<28} {:>12}", "case", "us/call");
    let mut csv = Vec::new();
    let mut report = |case: String, f: &mut dyn FnMut()| {
        f(); // warm the tensor pool
        let ((), secs) = timed(|| (0..iters).for_each(|_| f()));
        let us = secs * 1e6 / iters as f64;
        println!("{case:<28} {us:>12.1}");
        csv.push(format!("{case},{iters},{us:.3}"));
    };

    for v in [100usize, 400, 1600] {
        let probs = rand_tensor(&[32, v], 1);
        for (label, mode) in [("soft", GumbelMode::Soft), ("hard", GumbelMode::Hard)] {
            report(format!("gumbel_mode/{label}/{v}"), &mut || {
                let mut g = Graph::new();
                let mut rng = Rng::seed(2);
                let p = g.constant(probs.clone());
                black_box(gumbel_softmax(&mut g, &mut rng, p, 1.0, mode));
            });
        }
    }

    let mut store = ParamStore::new();
    let aug = SelfAugmenter::new(&mut store, "aug", 16, &mut Rng::seed(3));
    let table = rand_tensor(&[200, 16], 4);
    for t in [5usize, 10, 20] {
        let h0 = rand_tensor(&[16, t, 16], 5);
        report(format!("augment_step/seq_len/{t}"), &mut || {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let mut rng = Rng::seed(6);
            let hv = g.constant(h0.clone());
            let tv = g.constant(table.clone());
            black_box(aug.augment(&mut g, &bind, &mut rng, hv, tv, 1.0));
        });
    }
    write_results("ext_gumbel_cost.csv", "case,iters,us_per_call", &csv);
}
