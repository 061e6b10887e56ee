//! `probe_data` — the out-of-core path layer by layer, on `data_to_train`'s
//! corpus: columnar encode, open (CRC validation), sequential scan, split
//! planning, one epoch of windowed batches, and the multi-pass graph build
//! over the store — plus the in-RAM graph build at `online_loop`'s size.

use ssdrec_benchmark_probes::{beauty, Probe};
use ssdrec_data::{
    encode_dataset, plan_leave_one_out, BatchSource, ColumnarReader, StoreExamples, TruncatedStore,
};
use ssdrec_graph::{build_graph, build_graph_from_store, GraphConfig};

const MAX_LEN: usize = 50;

fn main() {
    let mut p = Probe::start("probe_data");
    let sz = p.sizes;
    let corpus = beauty(sz.data_scale, p.seed);
    let interactions = corpus.num_actions() as f64;
    let path = p.work.join("c.ssdc");

    let encode_ms = p.median_ms("data.encode", p.reps(10), || {
        encode_dataset(&corpus, &path).expect("encode the corpus");
    });
    let open_ms = p.median_ms("data.open", p.reps(30), || {
        std::hint::black_box(ColumnarReader::open(&path).expect("open the corpus"));
    });
    let reader = ColumnarReader::open(&path).expect("open the corpus");
    let mut seq = Vec::new();
    let scan_ms = p.median_ms("data.scan", p.reps(30), || {
        for u in 0..reader.num_users() {
            reader.read_seq(u, &mut seq);
            std::hint::black_box(&seq);
        }
    });

    // What `train --data` does before its first step.
    let store = TruncatedStore::new(&reader, MAX_LEN);
    let plan_ms = p.median_ms("data.plan", p.reps(30), || {
        std::hint::black_box(plan_leave_one_out(&store, 3, 3));
    });
    let plan = plan_leave_one_out(&store, 3, 3);
    let train = StoreExamples {
        store: &store,
        refs: &plan.train,
    };
    let mut batches = 0usize;
    let epoch_ms = p.median_ms("data.batch_windowed", p.reps(10), || {
        batches = 0;
        train.for_each_batch(64, p.seed, &mut |b| {
            std::hint::black_box(b);
            batches += 1;
        });
    });

    let cfg = GraphConfig::default();
    let mut edges = Vec::new();
    let build_ms = p.median_ms("graph.build", p.reps(3), || {
        edges.push(build_graph_from_store(&store, &cfg).total_edges());
    });
    assert!(
        edges.iter().all(|&e| e == edges[0]),
        "graph build is not deterministic: edge counts {edges:?}"
    );

    let small = beauty(sz.online_scale, p.seed);
    let small_ms = p.median_ms("graph.build_small", p.reps(10), || {
        std::hint::black_box(build_graph(&small, &cfg));
    });

    p.note(format!(
        "corpus: {} users, {} items, {interactions} interactions, {} train examples in {batches} batches; small graph: {} users, {} items",
        corpus.num_users,
        corpus.num_items,
        plan.train.len(),
        small.num_users,
        small.num_items
    ));
    p.metric(
        "data.encode_minter_per_s",
        interactions / encode_ms / 1e3,
        "M/s",
    );
    p.metric("data.open_ms", open_ms, "ms");
    p.metric(
        "data.scan_minter_per_s",
        interactions / scan_ms / 1e3,
        "M/s",
    );
    p.metric("data.plan_ms", plan_ms, "ms");
    p.metric("data.batch_windowed_ms", epoch_ms, "ms");
    p.metric("graph.build_s", build_ms / 1e3, "s");
    p.metric("graph.build_kinter_per_s", interactions / build_ms, "k/s");
    p.metric("graph.edges", edges[0] as f64, "count");
    p.metric("graph.build_small_ms", small_ms, "ms");
    p.finish();
}
