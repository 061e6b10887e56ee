//! `probe_ann` — the ANN retrieval layer on a seeded item table: index
//! build, candidate search, and the exact scan it stands in for, with the
//! recall that buys. No CLI path reaches a catalogue where ANN beats the
//! exact scan within a bounded set-up, so this layer has no end-to-end
//! workload yet and is measured here only.

use ssdrec_ann::{rerank_score, AnnParams, HnswIndex};
use ssdrec_benchmark_probes::{median, random_tensor, Probe};
use ssdrec_metrics::top_k_sparse;

const DIM: usize = 16;
const K: usize = 10;
/// The serving default (`--ef-search`).
const EF_SEARCH: usize = 128;

fn main() {
    let mut p = Probe::start("probe_ann");
    let (items, queries) = (p.sizes.ann_items, p.sizes.ann_queries);
    // Row 0 is the pad row, as in a model's item table.
    let table = random_tensor(&[items + 1, DIM], p.seed);
    let table = table.data();
    let qs = random_tensor(&[queries, DIM], p.seed.wrapping_add(1));
    let row = |i: usize| &table[i * DIM..(i + 1) * DIM];

    // The engine's construction settings for the default `--ann-m 16`.
    let params = AnnParams {
        m: 16,
        ef_construction: 96,
        ..AnnParams::default()
    };
    let build_ms = p.median_ms("ann.build", p.reps(3), || {
        std::hint::black_box(HnswIndex::build(table, DIM, items, params).expect("build"));
    });
    let index = HnswIndex::build(table, DIM, items, params).expect("build");

    let exact_top = |q: &[f32]| top_k_sparse((1..=items).map(|i| (i, rerank_score(q, row(i)))), K);
    let (mut cand_us, mut exact_us, mut cand_counts, mut recalled) =
        (Vec::new(), Vec::new(), Vec::new(), 0usize);
    for qi in 0..queries {
        let q = &qs.data()[qi * DIM..(qi + 1) * DIM];
        let (cands, ms) = p.timed("ann.candidates", p.root(), |_| {
            index.candidates(q, EF_SEARCH)
        });
        cand_us.push(ms * 1e3);
        cand_counts.push(cands.len() as f64);
        let (exact, ms) = p.timed("ann.exact_scan", p.root(), |_| exact_top(q));
        exact_us.push(ms * 1e3);
        let approx = top_k_sparse(
            cands
                .iter()
                .map(|&c| (c as usize, rerank_score(q, row(c as usize)))),
            K,
        );
        recalled += exact
            .iter()
            .filter(|e| approx.iter().any(|a| a.0 == e.0))
            .count();
    }

    p.note(format!(
        "{items} x {DIM} table, {queries} queries, m = 16, ef_construction = 96, ef_search = {EF_SEARCH}, {} edges",
        index.edges()
    ));
    p.metric("ann.build_ms", build_ms, "ms");
    p.metric("ann.build_us_per_item", build_ms * 1e3 / items as f64, "us");
    p.metric("ann.candidates_us", median(&cand_us), "us");
    p.metric("ann.candidates_per_query", median(&cand_counts), "count");
    p.metric("ann.exact_scan_us", median(&exact_us), "us");
    p.metric(
        "ann.recall_at_10",
        recalled as f64 / (queries * K) as f64,
        "ratio",
    );
    p.finish();
}
