//! Steady traffic spawns no threads: once the acceptors have grown to the
//! load, each connection is served by the thread that accepted it. The
//! only test in its binary, so no other test's threads move the count.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{client, serve, Engine, EngineConfig, ServerStats};

const NUM_ITEMS: usize = 20;

/// The process's live threads.
fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

fn recommend(addr: std::net::SocketAddr, i: usize) {
    let path = format!(
        "/recommend?user={i}&seq={},{}&k=5",
        i % NUM_ITEMS + 1,
        (i * 7) % NUM_ITEMS + 1
    );
    let (status, body) = client::get(addr, &path).expect("request");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn sequential_requests_after_warm_up_leave_the_thread_count_flat() {
    let model = SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, 5);
    let engine = Engine::new(
        model.into(),
        EngineConfig {
            workers: 1,
            max_len: 10,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    let mut handle = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    // Warm-up: a concurrent burst grows the acceptors past what one
    // sequential client needs, then a few sequential requests settle.
    let burst: Vec<_> = (0..4)
        .map(|c| std::thread::spawn(move || (0..10).for_each(|i| recommend(addr, c * 10 + i))))
        .collect();
    burst
        .into_iter()
        .for_each(|t| t.join().expect("warm-up client"));
    (0..20).for_each(|i| recommend(addr, i));

    let before = tasks();
    for i in 0..200 {
        recommend(addr, i);
        assert_eq!(tasks(), before, "live threads after request {i}");
    }
    handle.shutdown();
}
