//! Concurrent-client behaviour: several simultaneous HTTP connections must
//! all be answered correctly, and `/metrics` must account for every one of
//! them — request count, batching totals, non-zero latency percentiles.
//!
//! Whether those requests *coalesce* is a property of the queue, not of six
//! sockets and a timer: `engine::tests` pins it against pre-filled queues
//! (`queued_requests_share_one_forward_pass_per_length` and the
//! `JobQueue::take` policy tests), where it can be forced instead of
//! inferred.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use ssdrec_base::json;
use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{serve, Engine, EngineConfig, ServerStats};
use ssdrec_testkit::client;

const NUM_ITEMS: usize = 30;
const CLIENTS: usize = 6;
const MAX_BATCH: usize = 16;

fn start_server(linger_ms: u64, workers: usize) -> ssdrec_serve::ServerHandle {
    let model = SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, 99);
    let engine = Engine::new(
        model.into(),
        EngineConfig {
            workers,
            max_batch: MAX_BATCH,
            linger: Duration::from_millis(linger_ms),
            cache_capacity: 64,
            max_len: 10,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    serve(engine, "127.0.0.1:0").expect("bind ephemeral port")
}

#[test]
fn concurrent_clients_are_answered_and_metrics_add_up() {
    let mut handle = start_server(2, 1);
    let addr = handle.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Distinct users + histories so the cache never hits.
                let body = format!(
                    "{{\"user\":{c},\"seq\":[{},{},{}],\"k\":5}}",
                    c % NUM_ITEMS + 1,
                    (c + 7) % NUM_ITEMS + 1,
                    (c + 13) % NUM_ITEMS + 1
                );
                client::post(addr, "/recommend", &body).expect("request")
            })
        })
        .collect();

    let mut batch_sizes = Vec::new();
    for t in threads {
        let (status, body) = t.join().expect("client thread");
        assert_eq!(status, 200, "body: {body}");
        let v = json::parse(&body).expect("valid JSON");
        let items = v.get("items").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 5);
        // Valid catalogue items, no pad.
        for it in items {
            let id = it.as_usize().unwrap();
            assert!((1..=NUM_ITEMS).contains(&id), "item {id}");
        }
        batch_sizes.push(v.get("batch_size").unwrap().as_usize().unwrap());
    }
    assert!(
        batch_sizes.iter().all(|b| (1..=MAX_BATCH).contains(b)),
        "{batch_sizes:?}"
    );

    // /metrics: every request counted once, in exactly one forward pass, and
    // the batching section agrees with what the responses themselves said.
    let (status, body) = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let m = json::parse(&body).expect("metrics JSON");
    assert_eq!(
        m.get("requests_total").unwrap().as_usize(),
        Some(CLIENTS),
        "{body}"
    );
    let lat = m.get("latency_ms").unwrap();
    for q in ["p50", "p95", "p99"] {
        let v = lat.get(q).unwrap().as_f64().unwrap();
        assert!(v > 0.0, "{q} = {v} in {body}");
    }
    let batching = m.get("batching").unwrap();
    assert_eq!(
        batching.get("batched_requests_total").unwrap().as_usize(),
        Some(CLIENTS)
    );
    assert_eq!(
        batching.get("max_batch").unwrap().as_usize(),
        batch_sizes.iter().copied().max(),
        "{body}"
    );
    // A request in a batch of b is one of b reporting b: Σ 1/b = batches.
    let batches: f64 = batch_sizes.iter().map(|&b| 1.0 / b as f64).sum();
    assert_eq!(
        batching.get("batches_total").unwrap().as_usize(),
        Some(batches.round() as usize),
        "{batch_sizes:?} in {body}"
    );

    handle.shutdown();
}

#[test]
fn error_paths_over_http() {
    let mut handle = start_server(1, 2);
    let addr = handle.addr();

    // Unknown endpoint.
    let (status, _) = client::get(addr, "/nope").expect("request");
    assert_eq!(status, 404);
    // Wrong method.
    let (status, _) = client::post(addr, "/metrics", "{}").expect("request");
    assert_eq!(status, 405);
    // Malformed JSON.
    let (status, body) = client::post(addr, "/recommend", "{not json").expect("request");
    assert_eq!(status, 400, "{body}");
    // Out-of-range item.
    let req = format!("{{\"user\":0,\"seq\":[{}],\"k\":3}}", NUM_ITEMS + 1);
    let (status, body) = client::post(addr, "/recommend", &req).expect("request");
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "{body}");
    // Health check still fine afterwards.
    let (status, body) = client::get(addr, "/health").expect("request");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""));

    handle.shutdown();
}

#[test]
fn query_string_requests_work() {
    let mut handle = start_server(1, 1);
    let addr = handle.addr();
    let (status, body) = client::get(addr, "/recommend?user=2&seq=1,2,3&k=4").expect("request");
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).expect("JSON");
    assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 4);
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let handle = start_server(1, 1);
    let addr = handle.addr();
    let (status, body) = client::post(addr, "/shutdown", "").expect("request");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"));
    // join() returns because the accept loop has exited.
    handle.join();
    // The port no longer accepts connections.
    assert!(client::get(addr, "/health").is_err());
}
