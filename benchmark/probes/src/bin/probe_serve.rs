//! `probe_serve` — a served request layer by layer, on the `serve_*`
//! workloads' model shape and request pool: HTTP and JSON parsing, the
//! frozen forward, top-K, the engine with and without linger and cache,
//! and the HTTP front-end's share on a loopback socket.

use std::io::Cursor;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_benchmark_driver::gen::{self, Catalogue};
use ssdrec_benchmark_driver::sizes::number;
use ssdrec_benchmark_driver::{http as client, stats};
use ssdrec_benchmark_probes::{median, parse_request, prepared, ssdrec_model, Probe};
use ssdrec_data::Batch;
use ssdrec_metrics::par_top_k;
use ssdrec_models::RecModel;
use ssdrec_serve::http::{read_request, write_json};
use ssdrec_serve::json;
use ssdrec_serve::{serve_with, Engine, EngineConfig, ServeConfig, ServerStats};
use ssdrec_tensor::Graph;

const K: usize = 10;

/// One pool entry, parsed once: `(user, seq)`.
type Request = (usize, Vec<usize>);

fn direct(max_len: usize) -> EngineConfig {
    EngineConfig {
        workers: 1,
        max_batch: 1,
        linger: Duration::ZERO,
        cache_capacity: 0,
        max_len,
        ..EngineConfig::default()
    }
}

/// Median µs of `engine.recommend` over `n` pool entries from `start` on,
/// one at a time.
fn recommend_us(
    p: &Probe,
    span: &str,
    engine: &Engine,
    pool: &[Request],
    start: usize,
    n: usize,
) -> f64 {
    let mut next = start;
    let ms = p.each_ms(span, n, || {
        let (user, seq) = &pool[next % pool.len()];
        next += 1;
        engine.recommend(*user, seq, K).expect("recommend");
    });
    median(&ms) * 1e3
}

fn main() {
    let mut p = Probe::start("probe_serve");
    let sz = p.sizes;
    let (dim, max_len) = (number(sz.serve_dim) as usize, sz.serve_max_len);
    let prep = prepared(sz.serve_scale, p.seed, max_len);
    let cat = Catalogue {
        users: prep.split.test.len(),
        items: prep.dataset.num_items,
    };
    let bodies = gen::request_pool(p.seed, sz.serve_pool, 2, cat, (5, max_len), K);
    let pool: Vec<Request> = bodies.iter().map(|b| parse_request(b)).collect();
    let calls = p.reps(200);

    // Parsing: the bytes the load generator puts on the wire.
    let wire: Vec<Vec<u8>> = bodies
        .iter()
        .take(100)
        .map(|b| {
            format!(
                "POST /recommend HTTP/1.1\r\nHost: 127.0.0.1:7878\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{b}",
                b.len()
            )
            .into_bytes()
        })
        .collect();
    let http_parse_us = p.median_us_of("serve.http_parse", p.reps(30), wire.len(), {
        let mut i = 0;
        move || {
            let req = read_request(&mut Cursor::new(&wire[i % wire.len()][..]));
            std::hint::black_box(req.expect("parse").expect("a request"));
            i += 1;
        }
    });
    let json_parse_us = p.median_us_of("serve.json_parse", p.reps(30), 100, {
        let mut i = 0;
        let bodies = &bodies;
        move || {
            std::hint::black_box(json::parse(&bodies[i % bodies.len()]).expect("parse"));
            i += 1;
        }
    });

    // The frozen forward and top-K, as an engine worker runs them.
    let model = ssdrec_model(&prep.graph, dim, max_len, p.seed);
    let mut g = Graph::inference_with_capacity(Graph::DEFAULT_CAPACITY);
    let bind = model.store().bind_all(&mut g);
    let frozen = model.precompute_frozen(&mut g, &bind);
    let mark = g.mark();
    let width = model.num_items() + 1;
    let mut row: Vec<f32> = Vec::new();
    let mut next = 0;
    let forward_ms = p.each_ms("serve.frozen_forward", calls, || {
        let (user, seq) = &pool[next % pool.len()];
        next += 1;
        let batch = Batch {
            users: vec![*user],
            items: seq.clone(),
            seq_len: seq.len(),
            targets: vec![seq[seq.len() - 1]],
            noise: None,
        };
        let scores = model.eval_scores_frozen(&mut g, &bind, &batch, &frozen);
        row = g.value(scores).data()[..width].to_vec();
        g.truncate(mark);
    });
    let top_k_us = p.median_us_of("metrics.top_k", p.reps(30), 100, || {
        std::hint::black_box(par_top_k(&row, K));
    });
    let top = par_top_k(&row, K);
    let reply = format!(
        "{{\"user\":3,\"k\":{K},\"items\":[{}],\"scores\":[{}],\"batch_size\":1}}",
        top.iter()
            .map(|s| s.0.to_string())
            .collect::<Vec<_>>()
            .join(","),
        top.iter()
            .map(|s| json::f32_to_json(s.1))
            .collect::<Vec<_>>()
            .join(","),
    );
    let mut sink = Vec::with_capacity(512);
    let write_json_us = p.median_us_of("serve.write_json", p.reps(30), 100, || {
        sink.clear();
        write_json(&mut sink, 200, &reply).expect("write to a Vec");
    });

    // The engine: alone (no linger, no batching, no cache) and as shipped.
    let stats_direct = Arc::new(ServerStats::new());
    let engine = Engine::new(
        ssdrec_model(&prep.graph, dim, max_len, p.seed).into(),
        direct(max_len),
        stats_direct,
    );
    let engine_direct_us = recommend_us(&p, "serve.engine_direct", &engine, &pool, 0, calls);

    // Its HTTP front-end on a loopback socket, one request at a time.
    let mut server =
        serve_with(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind a loopback port");
    let addr = server.addr();
    let mut http_ms = Vec::with_capacity(calls);
    for body in bodies.iter().take(calls) {
        let t0 = Instant::now();
        let reply = p.timed("serve.http_request", p.root(), |_| {
            client::request(addr, "POST", "/recommend", body)
        });
        http_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(reply.0.expect("loopback request").0, 200);
    }
    server.shutdown();
    stats::sort(&mut http_ms);
    let http_p50_us = stats::quantile_sorted(&http_ms, 0.5).expect("requests were sent") * 1e3;

    let shipped = EngineConfig {
        max_len,
        ..EngineConfig::default()
    };
    let stats_default = Arc::new(ServerStats::new());
    let engine = Engine::new(
        ssdrec_model(&prep.graph, dim, max_len, p.seed).into(),
        shipped,
        Arc::clone(&stats_default),
    );
    // These fill the session cache; they come from the far half of the pool
    // so that the two callers below start on entries it has not seen.
    let far = pool.len() / 2;
    let engine_default_us =
        recommend_us(&p, "serve.engine_default", &engine, &pool, far, p.reps(100));
    let (again_user, again_seq) = &pool[pool.len() - 1];
    engine
        .recommend(*again_user, again_seq, K)
        .expect("prime the cache");
    let cache_hit_us = p.median_us_of("serve.cache_hit", p.reps(30), 100, || {
        std::hint::black_box(engine.recommend(*again_user, again_seq, K).expect("hit"));
    });

    // `serve_default`'s traffic in process: two closed-loop callers, one
    // request in five repeated.
    let (hits0, misses0, batches0, batched0) = (
        stats_default.cache_hits.load(Ordering::Relaxed),
        stats_default.cache_misses.load(Ordering::Relaxed),
        stats_default.batches_total.load(Ordering::Relaxed),
        stats_default.batched_requests_total.load(Ordering::Relaxed),
    );
    let per_caller = p.reps(250);
    p.timed("serve.two_callers", p.root(), |_| {
        std::thread::scope(|s| {
            for caller in 0..2 {
                let (engine, pool) = (&engine, &pool);
                s.spawn(move || {
                    for position in 0..per_caller {
                        let (user, seq) = &pool[gen::schedule(position, caller, 2, pool.len(), 5)];
                        engine.recommend(*user, seq, K).expect("recommend");
                    }
                });
            }
        })
    });
    let hits = stats_default.cache_hits.load(Ordering::Relaxed) - hits0;
    let misses = stats_default.cache_misses.load(Ordering::Relaxed) - misses0;
    let batches = stats_default.batches_total.load(Ordering::Relaxed) - batches0;
    let batched = stats_default.batched_requests_total.load(Ordering::Relaxed) - batched0;
    engine.shutdown();

    p.note(format!(
        "{} items, {} users, d = {dim}, sequences 5..={max_len}; loopback HTTP p50 {http_p50_us:.1} us over {calls} requests",
        cat.items, cat.users
    ));
    p.metric("serve.http_parse_us", http_parse_us, "us");
    p.metric("serve.json_parse_us", json_parse_us, "us");
    p.metric("serve.write_json_us", write_json_us, "us");
    p.metric("serve.frozen_forward_us", median(&forward_ms) * 1e3, "us");
    p.metric("metrics.top_k_us", top_k_us, "us");
    p.metric("serve.engine_direct_us", engine_direct_us, "us");
    p.metric("serve.engine_default_us", engine_default_us, "us");
    p.metric(
        "serve.linger_wait_us",
        engine_default_us - engine_direct_us,
        "us",
    );
    p.metric("serve.cache_hit_us", cache_hit_us, "us");
    p.metric(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    p.metric(
        "serve.batch_size_mean",
        batched as f64 / batches.max(1) as f64,
        "count",
    );
    p.metric(
        "serve.http_overhead_us",
        http_p50_us - engine_direct_us,
        "us",
    );
    p.finish();
}
