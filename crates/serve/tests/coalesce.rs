//! Coalescing through the public API: requests that queue while the
//! engine's only worker is stalled share its next forward pass, and every
//! coalesced answer is bit-identical to offline `recommend`.
//!
//! The stall is a fault armed as the process default (it fires on an
//! engine worker thread), so this test has a test binary of its own: no
//! other test can meet the plan.

use std::sync::{Arc, Barrier};

use ssdrec_base::json;
use ssdrec_models::{BackboneKind, RecModel, SeqRec};
use ssdrec_serve::{serve, Engine, EngineConfig, ServerStats};
use ssdrec_testkit::client;
use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};

const NUM_ITEMS: usize = 40;
const MAX_LEN: usize = 10;
const CLIENTS: usize = 6;
const K: usize = 5;

fn model() -> SeqRec {
    SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, MAX_LEN, 31)
}

/// Client `c`'s history: three items, distinct per client so the session
/// cache never answers.
fn history(c: usize) -> Vec<usize> {
    (0..3).map(|j| (c * 5 + j * 11) % NUM_ITEMS + 1).collect()
}

/// The raw tokens of a JSON array field, each parsed straight as `T` (for
/// scores: `f32` with no `f64` detour).
fn array_field<T: std::str::FromStr>(body: &str, field: &str) -> Vec<T> {
    body.split(&format!("\"{field}\":["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("no {field} array in {body}"))
        .split(',')
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| panic!("bad {field} token {t:?}"))
        })
        .collect()
}

#[test]
fn requests_queued_behind_a_stalled_batch_share_one_forward() {
    let _armed = FaultPlan::new()
        .delay_ms("engine.batch", 300, 1)
        .arm_process();
    let engine = Engine::new(
        model().into(),
        EngineConfig {
            workers: 1,
            max_len: MAX_LEN,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    let mut handle = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    // All clients at once: one acceptor is idle at the start, so serving
    // them concurrently also makes the acceptors spawn replacements.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let seq = history(c).iter().map(usize::to_string).collect::<Vec<_>>();
                let body = format!("{{\"user\":{c},\"seq\":[{}],\"k\":{K}}}", seq.join(","));
                barrier.wait();
                client::post(addr, "/recommend", &body).expect("request")
            })
        })
        .collect();

    let offline = model();
    let mut batch_sizes = Vec::new();
    for (c, t) in threads.into_iter().enumerate() {
        let (status, body) = t.join().expect("client thread");
        assert_eq!(status, 200, "client {c}: {body}");
        let expected = offline.recommend(c, &history(c), K);
        let items: Vec<usize> = array_field(&body, "items");
        let scores: Vec<f32> = array_field(&body, "scores");
        assert_eq!(items.len(), expected.len(), "client {c}: {body}");
        for (rank, ((&item, &score), &(off_item, off_score))) in
            items.iter().zip(&scores).zip(&expected).enumerate()
        {
            assert_eq!(item, off_item, "client {c} rank {rank} item");
            assert_eq!(
                score.to_bits(),
                off_score.to_bits(),
                "client {c} rank {rank}: served {score} vs offline {off_score}"
            );
        }
        let v = json::parse(&body).expect("valid JSON");
        batch_sizes.push(v.get("batch_size").unwrap().as_usize().unwrap());
    }
    assert_fired_exactly("engine.batch", 1);
    assert!(
        batch_sizes.iter().any(|&b| b >= 2),
        "no request shared a forward pass: {batch_sizes:?}"
    );

    let (status, body) = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let m = json::parse(&body).expect("metrics JSON");
    let batches = m
        .get("batching")
        .and_then(|b| b.get("batches_total"))
        .and_then(|n| n.as_usize())
        .expect("batches_total");
    assert!(
        batches < CLIENTS,
        "{batches} batches for {CLIENTS} requests: {batch_sizes:?} in {body}"
    );
    handle.shutdown();
}
