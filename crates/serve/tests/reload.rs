//! The reload path of a running server: the `reload_poll` timer swaps
//! without any request, and a server with a fixed model refuses `/reload`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{
    serve, serve_slot, Engine, EngineConfig, EngineSlot, InferenceModel, LoadedModel, ModelLoader,
    ServeConfig, ServerHandle, ServerStats,
};
use ssdrec_testkit::client;

const NUM_ITEMS: usize = 30;

fn model(seed: u64) -> InferenceModel {
    SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, seed).into()
}

fn engine(seed: u64) -> Engine {
    let cfg = EngineConfig {
        max_len: 10,
        ..EngineConfig::default()
    };
    Engine::new(model(seed), cfg, Arc::new(ServerStats::new()))
}

/// Version `v` serves `model(v)`; the loader publishes up to `max_version`.
fn step_loader(max_version: u64) -> Box<ModelLoader> {
    Box::new(move |current| {
        Ok((current < max_version).then(|| LoadedModel {
            model: model(current + 1),
            version: current + 1,
        }))
    })
}

fn reloadable_server(max_version: u64, reload_poll: Option<Duration>) -> ServerHandle {
    let cfg = ServeConfig {
        reload_poll,
        ..ServeConfig::default()
    };
    let slot = EngineSlot::reloadable(engine(1), 1, step_loader(max_version));
    serve_slot(slot, "127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// Poll `done` until it holds, for at most two seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn reload_poll_swaps_without_a_request() {
    let mut handle = reloadable_server(3, Some(Duration::from_millis(5)));
    let stats = handle.engine().stats_arc();
    eventually("the poller has swapped to the last version", || {
        stats.model_version() == 3
    });
    assert_eq!(stats.swap_total.load(Ordering::SeqCst), 2);
    // A request finds nothing left to swap.
    let (status, body) = client::post(handle.addr(), "/reload", "").expect("reload");
    assert_eq!(
        (status, body.as_str()),
        (200, "{\"status\":\"unchanged\",\"model_version\":3}")
    );
    handle.shutdown();
}

#[test]
fn a_fixed_server_refuses_reload_over_http() {
    let mut handle = serve(engine(1), "127.0.0.1:0").expect("bind ephemeral port");
    let (status, body) = client::post(handle.addr(), "/reload", "").expect("reload");
    assert_eq!(status, 500);
    assert!(body.contains("no reload source"), "{body}");
    handle.shutdown();
}
