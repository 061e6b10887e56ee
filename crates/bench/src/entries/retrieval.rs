//! Exact full-rank serving vs the two-stage ANN path (HNSW candidates +
//! exact re-rank) at catalogue scale, engine-level and closed-loop: 10K
//! items with `--fast`, 10K/100K by default, plus 1M with `--full` — sizes
//! no CLI-driven `benchmark/` workload reaches. Reports single-thread QPS,
//! p50/p95/p99, ANN-vs-exact recall@{10,20} and index build wall-clock to
//! `results/retrieval.json`, and asserts recall@10 ≥ 0.95, ANN ≥ 3× exact
//! from 100K items, and the determinism contract (rebuild byte-identical,
//! 1-vs-4-thread build byte-identical, served bits stable).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_ann::{AnnParams, HnswIndex};
use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{Engine, EngineConfig, RetrievalConfig, RetrievalMode, ServerStats};
use ssdrec_tensor::Graph;

use crate::{write_results, Args, Scale};

const MAX_LEN: usize = 20;
const K: usize = 20;
const SEED: u64 = 42;

/// `(items, dim)` per catalogue, and the query count.
fn sizes(scale: Scale) -> (&'static [(usize, usize)], usize) {
    match scale {
        Scale::Fast => (&[(10_000, 8)], 40),
        Scale::Quick => (&[(10_000, 16), (100_000, 16)], 200),
        Scale::Full => (&[(10_000, 16), (100_000, 16), (1_000_000, 16)], 200),
    }
}

/// Nearest-rank percentile of sorted microsecond latencies, in ms.
fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx] as f64 / 1000.0
}

/// Deterministic query sequences from the synthetic generator: each
/// simulated user's raw, time-ordered history over the full catalogue
/// (no k-core filtering — the ids must span all `items`), truncated to
/// the serving window.
fn queries(items: usize, n: usize) -> Vec<(usize, Vec<usize>)> {
    let raw = ssdrec_data::SyntheticConfig::beauty()
        .with_users(n + 60)
        .with_items(items)
        .with_seed(7)
        .generate();
    let qs: Vec<(usize, Vec<usize>)> = raw
        .sequences
        .iter()
        .enumerate()
        .filter(|(_, s)| s.len() >= 2)
        .take(n)
        .map(|(u, s)| (u, s[s.len().saturating_sub(MAX_LEN)..].to_vec()))
        .collect();
    assert!(qs.len() >= n.min(1), "not enough synthetic users");
    qs
}

fn engine(items: usize, dim: usize, retrieval: RetrievalConfig) -> Engine {
    let model = SeqRec::new(BackboneKind::SasRec, items, dim, MAX_LEN, SEED);
    Engine::try_new(
        model.into(),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            linger: Duration::ZERO,
            cache_capacity: 0, // every request crosses the worker
            max_len: MAX_LEN,
            retrieval,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    )
    .expect("engine")
}

/// Closed-loop single-caller sweep; returns per-query top-K lists and
/// sorted per-query latencies in µs.
fn drive(engine: &Engine, qs: &[(usize, Vec<usize>)]) -> (Vec<Vec<(usize, u32)>>, Vec<u64>) {
    for (user, seq) in qs.iter().take(5) {
        engine.recommend(*user, seq, K).expect("warmup");
    }
    let mut tops = Vec::with_capacity(qs.len());
    let mut lat = Vec::with_capacity(qs.len());
    for (user, seq) in qs {
        let t0 = Instant::now();
        let rec = engine.recommend(*user, seq, K).expect("recommend");
        lat.push(t0.elapsed().as_micros() as u64);
        tops.push(
            rec.items
                .iter()
                .map(|&(i, s)| (i, s.to_bits()))
                .collect::<Vec<_>>(),
        );
    }
    lat.sort_unstable();
    (tops, lat)
}

fn recall_at(exact: &[Vec<(usize, u32)>], ann: &[Vec<(usize, u32)>], k: usize) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (e, a) in exact.iter().zip(ann) {
        let want: Vec<usize> = e.iter().take(k).map(|&(i, _)| i).collect();
        hit += a.iter().take(k).filter(|(i, _)| want.contains(i)).count();
        total += want.len();
    }
    hit as f64 / total.max(1) as f64
}

/// Byte-level determinism of the index build itself: rebuild equality
/// and 1-vs-4-thread equality over the model's real embedding table.
fn build_determinism(items: usize, dim: usize) -> (bool, bool) {
    let model = SeqRec::new(BackboneKind::SasRec, items, dim, MAX_LEN, SEED);
    let mut g = Graph::inference_with_capacity(4096);
    let bind = model.store.bind_all(&mut g);
    let frozen = model.precompute_frozen(&mut g, &bind);
    let table = g.value(frozen.table).data().to_vec();
    let build = || {
        HnswIndex::build(&table, dim, items, AnnParams::default())
            .expect("build")
            .to_bytes()
    };
    let a = build();
    let rebuild_ok = a == build();
    ssdrec_runtime::set_threads(4);
    let threads_ok = a == build();
    ssdrec_runtime::set_threads(1);
    (rebuild_ok, threads_ok)
}

pub(crate) fn run(a: &Args) {
    let (catalogs, num_queries) = sizes(a.scale);
    ssdrec_runtime::set_threads(1); // single-thread QPS comparison

    // The determinism contract is asserted once, on the smallest
    // catalogue (three full builds are too expensive at 100K+).
    let (items0, dim0) = catalogs[0];
    let (rebuild_ok, threads_ok) = build_determinism(items0, dim0);
    assert!(rebuild_ok, "index rebuild must be byte-identical");
    assert!(threads_ok, "index build must not depend on thread count");
    println!("determinism at {items0} items: rebuild ok, 1-vs-4-thread ok");

    let retrieval = RetrievalConfig::default(); // m=16, ef_search=128
    let mut rows = Vec::new();
    for &(items, dim) in catalogs {
        let qs = queries(items, num_queries);
        println!("catalogue {items} (dim {dim}): {} queries", qs.len());

        let exact = engine(items, dim, RetrievalConfig::default());
        let (exact_tops, exact_lat) = drive(&exact, &qs);
        let exact_secs = exact_lat.iter().sum::<u64>() as f64 / 1e6;
        exact.shutdown();

        let ann = engine(
            items,
            dim,
            RetrievalConfig {
                mode: RetrievalMode::Ann,
                ..retrieval
            },
        );
        let build_ms = ann.stats().retrieval().build_us as f64 / 1000.0;
        let (ann_tops, ann_lat) = drive(&ann, &qs);
        let ann_secs = ann_lat.iter().sum::<u64>() as f64 / 1e6;

        // Served bits must be stable across repeat requests.
        let (u0, s0) = &qs[0];
        let once = ann.recommend(*u0, s0, K).expect("repeat");
        let twice = ann.recommend(*u0, s0, K).expect("repeat");
        let stable = once
            .items
            .iter()
            .zip(&twice.items)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        assert!(stable, "served ANN bits unstable at {items} items");
        ann.shutdown();

        let n = qs.len() as f64;
        let exact_qps = n / exact_secs.max(1e-9);
        let ann_qps = n / ann_secs.max(1e-9);
        let speedup = ann_qps / exact_qps;
        let r10 = recall_at(&exact_tops, &ann_tops, 10);
        let r20 = recall_at(&exact_tops, &ann_tops, 20);
        println!(
            "  exact {exact_qps:.0} qps, ann {ann_qps:.0} qps ({speedup:.2}x); \
             recall@10 {r10:.4}, recall@20 {r20:.4}; build {build_ms:.0} ms"
        );
        assert!(
            r10 >= 0.95,
            "recall@10 {r10:.4} < 0.95 at {items} items (default ef_search)"
        );
        if items >= 100_000 {
            assert!(
                speedup >= 3.0,
                "ANN speedup {speedup:.2}x < 3x at {items} items"
            );
        }

        rows.push(format!(
            "    {{\"items\": {items}, \"dim\": {dim}, \"queries\": {}, \
             \"build_ms\": {build_ms:.1}, \
             \"exact_qps\": {exact_qps:.1}, \"ann_qps\": {ann_qps:.1}, \
             \"speedup\": {speedup:.3}, \
             \"exact_p50_ms\": {:.3}, \"exact_p95_ms\": {:.3}, \"exact_p99_ms\": {:.3}, \
             \"ann_p50_ms\": {:.3}, \"ann_p95_ms\": {:.3}, \"ann_p99_ms\": {:.3}, \
             \"recall_at_10\": {r10:.4}, \"recall_at_20\": {r20:.4}, \
             \"serve_bits_stable\": true}}",
            qs.len(),
            percentile(&exact_lat, 0.50),
            percentile(&exact_lat, 0.95),
            percentile(&exact_lat, 0.99),
            percentile(&ann_lat, 0.50),
            percentile(&ann_lat, 0.95),
            percentile(&ann_lat, 0.99),
        ));
    }

    let params = AnnParams::default();
    let json = format!(
        "{{\n  \"bench\": \"retrieval\",\n  \"fast\": {},\n  \"threads\": 1,\n  \
         \"k\": {K},\n  \
         \"ann\": {{\"m\": {}, \"ef_construction\": {}, \"ef_search\": {}}},\n  \
         \"deterministic_rebuild\": {rebuild_ok},\n  \
         \"thread_invariant_build\": {threads_ok},\n  \
         \"catalogs\": [\n{}\n  ]\n}}",
        a.scale == Scale::Fast,
        params.m,
        params.ef_construction,
        retrieval.ef_search,
        rows.join(",\n")
    );

    write_results("retrieval.json", &json, &[]);
}
