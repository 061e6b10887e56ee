//! End-to-end serving parity: train a tiny SSDRec model, checkpoint it,
//! reload the checkpoint into the serving subsystem, and verify that the
//! top-K list served over HTTP is **bit-identical** to offline scoring
//! with the in-memory model.

use std::sync::Arc;

use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{prepare, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_models::{train, BackboneKind, RecModel, TrainConfig};
use ssdrec_serve::{serve, Engine, EngineConfig, ServerStats};
use ssdrec_tensor::{load_params, save_params};
use ssdrec_testkit::client;

const MAX_LEN: usize = 12;

fn tiny_config() -> SsdRecConfig {
    SsdRecConfig {
        dim: 8,
        max_len: MAX_LEN,
        backbone: BackboneKind::SasRec,
        seed: 11,
        ..SsdRecConfig::default()
    }
}

fn tiny_world() -> (ssdrec_data::Split, MultiRelationGraph) {
    let raw = SyntheticConfig::beauty()
        .scaled(0.03)
        .with_seed(5)
        .generate();
    let (dataset, split) = prepare(&raw, MAX_LEN, 3);
    assert!(!split.test.is_empty(), "tiny dataset must yield sequences");
    let graph = build_graph(&dataset, &GraphConfig::default());
    (split, graph)
}

/// Pull the raw `"scores"` array out of the response body and parse each
/// token directly as `f32`, so the comparison exercises exactly the
/// shortest-round-trip guarantee the encoder relies on (no `f64` detour).
fn scores_from_body(body: &str) -> Vec<f32> {
    let arr = body
        .split("\"scores\":[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("no scores array in {body}"));
    arr.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap_or_else(|_| panic!("bad score {t:?}")))
        .collect()
}

fn items_from_body(body: &str) -> Vec<usize> {
    let arr = body
        .split("\"items\":[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("no items array in {body}"));
    arr.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap_or_else(|_| panic!("bad item {t:?}")))
        .collect()
}

#[test]
fn served_topk_is_bit_identical_to_offline_scoring() {
    let (split, graph) = tiny_world();

    // Train briefly and checkpoint.
    let mut trained = SsdRec::new(&graph, tiny_config());
    train(
        &mut trained,
        &split,
        &TrainConfig {
            epochs: 1,
            batch_size: 32,
            seed: 11,
            ..TrainConfig::default()
        },
    );
    let dir = ssdrec_testkit::TempDir::new("ssdrec-parity");
    let ckpt = dir.join("model.ssdt");
    save_params(&trained.store, &ckpt).expect("write checkpoint");

    // Reload into a *fresh* model, exactly as the CLI serve path does.
    let mut served_model = SsdRec::new(&graph, tiny_config());
    load_params(&mut served_model.store, &ckpt).expect("read checkpoint");

    let engine = Engine::new(
        served_model.into(),
        EngineConfig {
            workers: 2,
            max_len: MAX_LEN,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    let mut handle = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    let k = 10;
    let mut checked = 0;
    for ex in split.test.iter().take(5) {
        let offline = trained.recommend(ex.user, &ex.seq, k);
        let body = format!(
            "{{\"user\":{},\"seq\":[{}],\"k\":{k}}}",
            ex.user,
            ex.seq
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, resp) = client::post(addr, "/recommend", &body).expect("http");
        assert_eq!(status, 200, "response: {resp}");

        let items = items_from_body(&resp);
        let scores = scores_from_body(&resp);
        assert_eq!(items.len(), offline.len(), "user {}", ex.user);
        for (rank, ((&item, &score), &(off_item, off_score))) in
            items.iter().zip(&scores).zip(&offline).enumerate()
        {
            assert_eq!(item, off_item, "user {} rank {rank} item", ex.user);
            assert_eq!(
                score.to_bits(),
                off_score.to_bits(),
                "user {} rank {rank}: served {score} vs offline {off_score}",
                ex.user
            );
        }
        checked += 1;
    }
    assert!(checked >= 1);

    // The cache returns the same bits on a repeat request.
    let ex = &split.test[0];
    let body = format!(
        "{{\"user\":{},\"seq\":[{}]}}",
        ex.user,
        ex.seq
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (_, first) = client::post(addr, "/recommend", &body).expect("http");
    let (_, second) = client::post(addr, "/recommend", &body).expect("http");
    assert_eq!(scores_from_body(&first), scores_from_body(&second));

    handle.shutdown();
}
