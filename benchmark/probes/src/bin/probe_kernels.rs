//! `probe_kernels` — the bottom layer: the two gemm shapes training spends
//! its time in, a row softmax, checkpoint I/O and the thread pool's
//! dispatch cost, at `train_ssdrec`'s sizes. GFLOP/s figures are computed
//! from the shapes (2·m·k·n per product), not read from a counter.

use ssdrec_benchmark_driver::sizes::number;
use ssdrec_benchmark_probes::{prepared, random_tensor, ssdrec_model, Probe};
use ssdrec_tensor::{kernels, load_params, save_params};

const MAX_LEN: usize = 50;

fn gflops(m: usize, k: usize, n: usize, us_per_call: f64) -> f64 {
    (2 * m * k * n) as f64 / (us_per_call * 1e3)
}

fn main() {
    let mut p = Probe::start("probe_kernels");
    let sz = p.sizes;
    let d = number(sz.train_dim) as usize;
    let prep = prepared(sz.train_scale, p.seed, MAX_LEN);
    let v = prep.graph.num_items + 1;

    // Relation encoder: a dense (V+1)² adjacency times the (V+1)×d table.
    let adj = random_tensor(&[v, v], p.seed);
    let table = random_tensor(&[v, d], p.seed.wrapping_add(1));
    let adj_us = p.median_us_of("tensor.gemm_adj", p.reps(30), 20, || {
        std::hint::black_box(kernels::matmul(&adj, &table));
    });
    // Catalogue scoring: B×d sequence representations times d×(V+1).
    let h = random_tensor(&[64, d], p.seed.wrapping_add(2));
    let table_t = random_tensor(&[d, v], p.seed.wrapping_add(3));
    let score_us = p.median_us_of("tensor.gemm_score", p.reps(30), 50, || {
        std::hint::black_box(kernels::matmul(&h, &table_t));
    });
    let logits = random_tensor(&[64, v], p.seed.wrapping_add(4));
    let softmax_us = p.median_us_of("tensor.softmax_rows", p.reps(30), 50, || {
        std::hint::black_box(kernels::softmax_last(&logits));
    });

    // Checkpoint write (atomic: temp file, sync, rename) and read back.
    let mut model = ssdrec_model(&prep.graph, d, MAX_LEN, p.seed);
    let path = p.work.join("m.ssdt");
    let save_ms = p.median_ms("tensor.ckpt_save", p.reps(30), || {
        save_params(&model.store, &path).expect("write the checkpoint");
    });
    let load_ms = p.median_ms("tensor.ckpt_load", p.reps(30), || {
        load_params(&mut model.store, &path).expect("read the checkpoint back");
    });

    // An empty parallel_for with one chunk per thread: wake, run, join.
    let threads = ssdrec_runtime::threads();
    let dispatch_us = p.median_us_of("runtime.dispatch", p.reps(30), 200, || {
        ssdrec_runtime::parallel_for(threads, 1, |_, _| {});
    });

    p.note(format!(
        "adjacency {v} x {v} . {v} x {d}; scoring 64 x {d} . {d} x {v}; softmax 64 x {v}; {} parameter scalars",
        model.store.num_scalars()
    ));
    p.metric("tensor.gemm_adj_gflops", gflops(v, v, d, adj_us), "gflop/s");
    p.metric(
        "tensor.gemm_score_gflops",
        gflops(64, d, v, score_us),
        "gflop/s",
    );
    p.metric("tensor.softmax_rows_us", softmax_us, "us");
    p.metric("tensor.ckpt_save_ms", save_ms, "ms");
    p.metric("tensor.ckpt_load_ms", load_ms, "ms");
    p.metric("runtime.threads", threads as f64, "count");
    p.metric("runtime.dispatch_us", dispatch_us, "us");
    p.finish();
}
