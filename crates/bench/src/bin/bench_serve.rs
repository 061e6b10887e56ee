//! Closed-loop load generator for the online serving subsystem.
//!
//! Trains a small SSDRec model, checkpoints it, serves the checkpoint on an
//! ephemeral port, then drives it with several concurrent closed-loop HTTP
//! clients (each waits for its response before sending the next request).
//! Reports client-observed latency percentiles and throughput next to the
//! server's own `/metrics` view, and writes a CSV latency report to
//! `target/ssdrec-bench/`.
//!
//! `cargo run --release -p ssdrec-bench --bin bench_serve \
//!     [--full] [--clients N] [--requests N]`
//!
//! `SSDREC_BENCH_FAST=1` (the CI smoke) shrinks everything to a few
//! seconds.
//!
//! With `--retrieval` the binary instead runs the **retrieval harness**:
//! engine-level closed-loop comparison of the exact full-rank path against
//! the two-stage ANN path (HNSW candidates + exact re-rank) at catalogue
//! scale — 10K items in fast mode, 10K/100K by default, plus 1M with
//! `--full`. Reports single-thread QPS, p50/p95/p99, ANN-vs-exact
//! recall@{10,20} and index build wall-clock to
//! `target/ssdrec-bench/bench_retrieval.json` (and, outside fast mode,
//! `BENCH_retrieval.json` at the repository root), and asserts the
//! determinism contract (rebuild byte-identical, 1-vs-4-thread build
//! byte-identical, served bits stable).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_bench::timed;
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{prepare, Split, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_models::{train, BackboneKind, TrainConfig};
use ssdrec_serve::{client, serve, Engine, EngineConfig, ServerStats};
use ssdrec_tensor::{load_params, save_params};

struct LoadConfig {
    scale: f64,
    epochs: usize,
    clients: usize,
    requests_per_client: usize,
    max_len: usize,
    dim: usize,
}

fn config() -> LoadConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = std::env::var("SSDREC_BENCH_FAST").is_ok_and(|v| v == "1");
    let full = args.iter().any(|a| a == "--full");
    let mut cfg = if fast {
        LoadConfig {
            scale: 0.03,
            epochs: 1,
            clients: 4,
            requests_per_client: 8,
            max_len: 12,
            dim: 8,
        }
    } else if full {
        LoadConfig {
            scale: 0.35,
            epochs: 5,
            clients: 8,
            requests_per_client: 100,
            max_len: 50,
            dim: 16,
        }
    } else {
        LoadConfig {
            scale: 0.1,
            epochs: 2,
            clients: 4,
            requests_per_client: 40,
            max_len: 20,
            dim: 8,
        }
    };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    if let Some(c) = flag("--clients") {
        cfg.clients = c.max(1);
    }
    if let Some(r) = flag("--requests") {
        cfg.requests_per_client = r.max(1);
    }
    cfg
}

fn checkpointed_world(cfg: &LoadConfig) -> (Split, MultiRelationGraph, PathBuf) {
    let raw = SyntheticConfig::beauty()
        .scaled(cfg.scale)
        .with_seed(7)
        .generate();
    let (dataset, split) = prepare(&raw, cfg.max_len, 2);
    assert!(!split.test.is_empty(), "load-test dataset has no sequences");
    let graph = build_graph(&dataset, &GraphConfig::default());

    let model_cfg = SsdRecConfig {
        dim: cfg.dim,
        max_len: cfg.max_len,
        backbone: BackboneKind::SasRec,
        seed: 7,
        ..SsdRecConfig::default()
    };
    let mut model = SsdRec::new(&graph, model_cfg);
    let (_, train_secs) = timed(|| {
        train(
            &mut model,
            &split,
            &TrainConfig {
                epochs: cfg.epochs,
                batch_size: 64,
                seed: 7,
                ..TrainConfig::default()
            },
        )
    });
    println!("trained {} in {train_secs:.1}s", "SSDRec[SASRec]");

    let ckpt = ssdrec_bench::bench_dir().join("serve_ckpt.ssdt");
    save_params(&model.store, &ckpt).expect("write checkpoint");
    (split, graph, ckpt)
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx] as f64 / 1000.0
}

fn drive_load(addr: SocketAddr, split: &Split, cfg: &LoadConfig) -> (Vec<u64>, f64) {
    let examples: Arc<Vec<(usize, Vec<usize>)>> =
        Arc::new(split.test.iter().map(|e| (e.user, e.seq.clone())).collect());
    let wall = Instant::now();
    let threads: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let examples = Arc::clone(&examples);
            let n = cfg.requests_per_client;
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(n);
                for r in 0..n {
                    let (user, seq) = &examples[(c * 131 + r) % examples.len()];
                    let body = format!(
                        "{{\"user\":{user},\"seq\":[{}],\"k\":10}}",
                        seq.iter()
                            .map(|i| i.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    let t0 = Instant::now();
                    let (status, resp) = client::post(addr, "/recommend", &body).expect("request");
                    latencies.push(t0.elapsed().as_micros() as u64);
                    assert_eq!(status, 200, "client {c} req {r}: {resp}");
                    assert!(
                        resp.contains("\"items\":["),
                        "client {c} req {r}: malformed {resp}"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut all: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    let wall_secs = wall.elapsed().as_secs_f64();
    all.sort_unstable();
    (all, wall_secs)
}

fn main() {
    if std::env::args().any(|a| a == "--retrieval") {
        retrieval::run();
        return;
    }
    let cfg = config();
    let (split, graph, ckpt) = checkpointed_world(&cfg);

    // Reload the checkpoint into a fresh model — the same path `ssdrec
    // serve` takes — so the benchmark covers checkpoint I/O too.
    let model_cfg = SsdRecConfig {
        dim: cfg.dim,
        max_len: cfg.max_len,
        backbone: BackboneKind::SasRec,
        seed: 7,
        ..SsdRecConfig::default()
    };
    let mut served = SsdRec::new(&graph, model_cfg);
    load_params(&mut served.store, &ckpt).expect("reload checkpoint");

    let engine = Engine::new(
        served.into(),
        EngineConfig {
            workers: 2,
            max_batch: 32,
            linger: Duration::from_millis(2),
            cache_capacity: 256,
            max_len: cfg.max_len,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    let mut handle = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();
    println!(
        "serving on {addr}: {} clients × {} closed-loop requests",
        cfg.clients, cfg.requests_per_client
    );

    let (latencies, wall_secs) = drive_load(addr, &split, &cfg);
    let total = latencies.len();
    let qps = total as f64 / wall_secs;
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    let mean = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64 / 1000.0;

    println!("client-observed over {total} requests in {wall_secs:.2}s:");
    println!("  qps  : {qps:.1}");
    println!("  mean : {mean:.2} ms");
    println!("  p50  : {p50:.2} ms   p95: {p95:.2} ms   p99: {p99:.2} ms");

    let (status, metrics) = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    println!("server /metrics: {metrics}");

    let report = ssdrec_bench::bench_dir().join("serve_latency.csv");
    let csv = format!(
        "clients,requests,wall_secs,qps,mean_ms,p50_ms,p95_ms,p99_ms\n{},{},{:.3},{:.1},{:.3},{:.3},{:.3},{:.3}\n",
        cfg.clients, total, wall_secs, qps, mean, p50, p95, p99
    );
    std::fs::write(&report, csv).expect("write latency report");
    println!("latency report written to {}", report.display());

    handle.shutdown();
    std::fs::remove_file(&ckpt).ok();
}

/// The retrieval harness (`--retrieval`): exact vs ANN at catalogue scale.
mod retrieval {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use ssdrec_ann::{AnnParams, HnswIndex};
    use ssdrec_models::{BackboneKind, SeqRec};
    use ssdrec_serve::{Engine, EngineConfig, RetrievalConfig, RetrievalMode, ServerStats};
    use ssdrec_tensor::Graph;

    use super::percentile;

    const MAX_LEN: usize = 20;
    const K: usize = 20;
    const SEED: u64 = 42;

    struct RetrievalCfg {
        fast: bool,
        catalogs: Vec<(usize, usize)>, // (items, dim)
        queries: usize,
    }

    fn config() -> RetrievalCfg {
        let fast = ssdrec_bench::fast_mode();
        let full = std::env::args().any(|a| a == "--full");
        if fast {
            RetrievalCfg {
                fast: true,
                catalogs: vec![(10_000, 8)],
                queries: 40,
            }
        } else if full {
            RetrievalCfg {
                fast: false,
                catalogs: vec![(10_000, 16), (100_000, 16), (1_000_000, 16)],
                queries: 200,
            }
        } else {
            RetrievalCfg {
                fast: false,
                catalogs: vec![(10_000, 16), (100_000, 16)],
                queries: 200,
            }
        }
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

    pub fn run() {
        let cfg = config();
        ssdrec_runtime::set_threads(1); // single-thread QPS comparison

        // The determinism contract is asserted once, on the smallest
        // catalogue (three full builds are too expensive at 100K+).
        let (items0, dim0) = cfg.catalogs[0];
        let (rebuild_ok, threads_ok) = build_determinism(items0, dim0);
        assert!(rebuild_ok, "index rebuild must be byte-identical");
        assert!(threads_ok, "index build must not depend on thread count");
        println!("determinism at {items0} items: rebuild ok, 1-vs-4-thread ok");

        let retrieval = RetrievalConfig::default(); // m=16, ef_search=128
        let mut rows = Vec::new();
        for &(items, dim) in &cfg.catalogs {
            let qs = queries(items, cfg.queries);
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
             \"catalogs\": [\n{}\n  ]\n}}\n",
            cfg.fast,
            params.m,
            params.ef_construction,
            retrieval.ef_search,
            rows.join(",\n")
        );

        // Self-check: the report must keep the recall field CI greps for.
        let (path, parsed) = ssdrec_bench::write_report("retrieval", &json, cfg.fast);
        let cats = parsed
            .get("catalogs")
            .and_then(|c| c.as_arr())
            .expect("catalogs array");
        assert_eq!(cats.len(), cfg.catalogs.len());
        for c in cats {
            let r = c
                .get("recall_at_10")
                .and_then(|v| v.as_f64())
                .expect("recall_at_10 field");
            assert!(r >= 0.95);
        }

        println!("wrote {}", path.display());
    }
}
