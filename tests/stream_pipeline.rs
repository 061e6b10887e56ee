//! End-to-end online loop, no faults: ingest into the append-only log,
//! run warm-started full retrain rounds into a versioned checkpoint directory,
//! and hot-swap the published versions into a serving [`EngineSlot`].

mod common;

use std::sync::Arc;

use common::{delta_events, retrain_spec, scratch_dir, seed_events, served_bits, CATALOG};
use ssdrec::serve::{Engine, EngineConfig, EngineSlot, LoadedModel, ReloadOutcome, ServerStats};
use ssdrec::stream::{
    load_current, load_newer, load_version, open_or_create_log, retrain, CheckpointDir,
    RetrainOutcome,
};

#[test]
fn ingest_retrain_publish_and_reload_round_trips() {
    let dir = scratch_dir("stream_roundtrip");
    let log_path = dir.join("events.sslg");
    let root = dir.join("ckpts");

    // Day 0: bulk ingest, first full round publishes v1.
    let (mut log, created) = open_or_create_log(&log_path, Some(CATALOG)).expect("create log");
    assert!(created);
    seed_events(&mut log);
    let v1_end = log.end();
    drop(log);

    let sp = retrain_spec(2);
    let v1 = match retrain(&log_path, &root, &sp, false).expect("first round") {
        RetrainOutcome::Trained(t) => t,
        other => panic!("expected a trained version, got {other:?}"),
    };
    assert_eq!(v1.version, 1);
    assert_eq!(v1.consumed, v1_end);
    assert_eq!(
        CheckpointDir::new(&root)
            .current_version()
            .expect("CURRENT"),
        Some(1)
    );

    // Nothing new in the log: the round is a no-op.
    assert!(matches!(
        retrain(&log_path, &root, &sp, false).expect("no-op round"),
        RetrainOutcome::UpToDate { version: 1 }
    ));

    // Day 1: a delta lands, the next (warm-started, full) round publishes v2.
    let (mut log, created) = open_or_create_log(&log_path, None).expect("reopen log");
    assert!(!created);
    delta_events(&mut log);
    drop(log);
    let v2 = match retrain(&log_path, &root, &sp, false).expect("second round") {
        RetrainOutcome::Trained(t) => t,
        other => panic!("expected a trained version, got {other:?}"),
    };
    assert_eq!(v2.version, 2);
    assert_eq!(v2.delta_records, CATALOG.num_users as u64);

    // Both versions stay loadable; v1 still replays to its pinned offset.
    let old = load_version(&log_path, &root, 1).expect("load v1");
    assert_eq!(old.meta.consumed, v1_end);
    let cur = load_current(&log_path, &root)
        .expect("load CURRENT")
        .expect("published");
    assert_eq!(cur.version, 2);

    // Loading the same version twice is bit-deterministic end to end: the
    // served top-K bytes agree exactly.
    let again = load_current(&log_path, &root)
        .expect("reload")
        .expect("published");
    let max_len = cur.meta.spec.arch.max_len;
    assert_eq!(
        served_bits(cur.model, max_len),
        served_bits(again.model, max_len)
    );

    // And the reload probe sees v2 only from an older baseline.
    assert!(load_newer(&log_path, &root, 2).expect("probe").is_none());
    assert_eq!(
        load_newer(&log_path, &root, 1)
            .expect("probe")
            .expect("newer")
            .version,
        2
    );
}

#[test]
fn published_versions_hot_swap_into_a_serving_slot() {
    let dir = scratch_dir("stream_hotswap");
    let log_path = dir.join("events.sslg");
    let root = dir.join("ckpts");

    let (mut log, _) = open_or_create_log(&log_path, Some(CATALOG)).expect("create log");
    seed_events(&mut log);
    drop(log);
    let sp = retrain_spec(2);
    retrain(&log_path, &root, &sp, false).expect("publish v1");

    // Boot the server exactly the way `serve --ckpt-dir` does: load CURRENT,
    // wire a loader that probes for anything newer.
    let booted = load_current(&log_path, &root)
        .expect("load")
        .expect("published");
    let max_len = booted.meta.spec.arch.max_len;
    let stats = Arc::new(ServerStats::new());
    let engine = Engine::new(
        booted.model.into(),
        EngineConfig {
            workers: 1,
            max_len,
            cache_capacity: 16,
            ..EngineConfig::default()
        },
        Arc::clone(&stats),
    );
    let (loader_log, loader_root) = (log_path.clone(), root.clone());
    let slot = EngineSlot::reloadable(
        engine,
        booted.version,
        Box::new(move |current| {
            Ok(
                load_newer(&loader_log, &loader_root, current)?.map(|newer| LoadedModel {
                    model: newer.model.into(),
                    version: newer.version,
                }),
            )
        }),
    );

    // Nothing newer yet: the poll is a cheap no-op.
    assert_eq!(
        slot.reload().expect("probe"),
        ReloadOutcome::Unchanged { version: 1 }
    );
    let before = slot.engine().recommend(0, &[3, 9, 4, 1], 8).expect("v1");

    // A delta + retrain publishes v2; the next reload swaps it in and the
    // served bytes become exactly what loading v2 directly would serve.
    let (mut log, _) = open_or_create_log(&log_path, None).expect("reopen");
    delta_events(&mut log);
    drop(log);
    retrain(&log_path, &root, &sp, false).expect("publish v2");
    assert_eq!(
        slot.reload().expect("swap"),
        ReloadOutcome::Swapped { version: 2 }
    );
    assert_eq!(stats.model_version(), 2);

    let after = slot.engine().recommend(0, &[3, 9, 4, 1], 8).expect("v2");
    let oracle = load_version(&log_path, &root, 2).expect("load v2");
    let want = served_bits(oracle.model, max_len);
    let got: Vec<(usize, u32)> = after.items.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    assert_eq!(
        got, want,
        "swapped-in engine must serve exactly the published v2 bytes"
    );
    assert_ne!(
        got,
        before
            .items
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect::<Vec<_>>(),
        "the delta round must actually change the model"
    );
    slot.shutdown();
}
