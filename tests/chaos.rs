//! The chaos suite: deterministic fault injection against the two
//! crash-sensitive subsystems.
//!
//! * **Training**: a run killed by an injected panic mid-training and then
//!   `--resume`d must finish **byte-for-byte identical** to a run that was
//!   never interrupted — loss bits, metric bits and checkpoint bytes.
//! * **Serving**: injected read/write/worker faults must never deadlock or
//!   corrupt the server; once a fault is consumed, responses return to
//!   bit-identical top-K, workers respawn, `/metrics` reports the recovery
//!   counters, and an overloaded queue sheds with 503 instead of growing.
//!
//! The serving tests arm the process default: their sites run on the
//! server's connection threads and engine workers. A process plan reaches
//! every thread, so every test here serialises behind one mutex (an
//! unfaulted baseline phase would still bump another test's hit counters).

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use common::{
    assert_kill_and_resume_is_bit_identical, delta_events, retrain_spec, scratch, scratch_dir,
    seed_events, served_bits, sports_world, ssdrec_on, train_config, CATALOG, DIM, MAX_LEN,
};
use ssdrec::base::json;
use ssdrec::core::Prepared;
use ssdrec::data::{plan_batches, prepare, SyntheticConfig};
use ssdrec::denoise::Hsd;
use ssdrec::models::{
    fit, load_train_state, save_train_state, BackboneKind, CheckpointConfig, RecModel, SeqRec,
    TrainError, TrainOptions, TrainState,
};
use ssdrec::serve::{serve, Engine, EngineConfig, RecError, ServerStats};
use ssdrec::stream::{load_current, open_or_create_log, retrain, CheckpointDir, RetrainOutcome};
use ssdrec_testkit::client::{self, ClientError};
use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Training: kill + resume ≡ uninterrupted
// ---------------------------------------------------------------------------

#[test]
fn killed_and_resumed_training_is_bit_identical() {
    let _g = locked();
    let prep = sports_world(0.03, 7);
    assert_kill_and_resume_is_bit_identical("chaos", &prep, 32, |p| ssdrec_on(p, 7));
}

/// HSD anneals its Gumbel τ every 40 steps, so its resumed run is
/// bit-identical only if the checkpoint carries the τ schedule. Sports ×0.2
/// at batch size 4 runs 34 steps an epoch, so the kill after epoch 2 (step
/// 68) lands after the first anneal (step 40).
#[test]
fn killed_and_resumed_hsd_training_is_bit_identical() {
    let _g = locked();
    let prep = sports_world(0.2, 7);
    // Batches are bucketed by length, so their count ignores the seed.
    let lengths: Vec<usize> = prep.split.train.iter().map(|e| e.seq.len()).collect();
    let steps = 2 * plan_batches(&lengths, 4, 0).len();
    assert!(
        steps >= 40,
        "only {steps} steps before the kill: τ never anneals"
    );
    let build =
        |p: &Prepared| Hsd::new(p.dataset.num_users, p.dataset.num_items, DIM, p.max_len, 7);
    assert_kill_and_resume_is_bit_identical("chaos_hsd", &prep, 4, build);
}

#[test]
fn faulted_state_save_fails_cleanly_without_a_torn_file() {
    let _g = locked();
    let raw = SyntheticConfig::beauty()
        .scaled(0.05)
        .with_seed(3)
        .generate();
    let (dataset, split) = prepare(&raw, 20, 2);
    let mut model = SeqRec::new(BackboneKind::Gru4Rec, dataset.num_items, 8, 20, 5);
    let path = scratch("chaos_torn.sstc");
    let tc = train_config(1, 5);
    let _armed = FaultPlan::new().error("ckpt.save", 1).arm();
    let ckpt = CheckpointConfig::new(&path);
    let opts = TrainOptions::checkpointed(&ckpt);
    let err = fit(&mut model, &(&split).into(), &tc, &opts)
        .expect_err("the injected save fault must surface");
    assert!(
        err.to_string().contains("injected fault at ckpt.save"),
        "{err}"
    );
    assert!(!path.exists(), "a failed save must not leave a state file");
    assert!(
        !path.with_extension("sstc.tmp").exists(),
        "no temp file may survive a failed save"
    );
    assert_fired_exactly("ckpt.save", 1);
}

/// SSTC carries no CRC, so a forged word count is a well-formed file.
/// Resuming from one is a `TrainError::State` naming the file, never a
/// panic: SSDRec's τ schedule takes exactly two model-state words, a bare
/// SASRec none, and the early-stopping snapshot must fit the model's store.
#[test]
fn forged_training_state_is_refused_without_a_panic() {
    let _g = locked();
    let prep = sports_world(0.03, 7);
    let sasrec = || {
        SeqRec::new(
            BackboneKind::SasRec,
            prep.dataset.num_items,
            DIM,
            MAX_LEN,
            7,
        )
    };
    assert_resume_refused("ssdrec", ssdrec_on(&prep, 7), &prep, "SSDRec", |st| {
        st.model_state = vec![1, 2, 3];
    });
    assert_resume_refused("sasrec", sasrec(), &prep, "stateless", |st| {
        st.model_state = vec![1];
    });
    assert_resume_refused("snapshot", sasrec(), &prep, "snapshot", |st| {
        st.best_snapshot.pop();
    });
}

/// Train `model` one checkpointed epoch, `forge` the saved state, and
/// resume from it: the error must name the file and contain `want`.
fn assert_resume_refused<M: RecModel>(
    tag: &str,
    mut model: M,
    prep: &Prepared,
    want: &str,
    forge: impl FnOnce(&mut TrainState),
) {
    let path = scratch(&format!("forged_{tag}.sstc"));
    let ckpt = CheckpointConfig::new(&path);
    let tc = train_config(1, 7);
    fit(
        &mut model,
        &(&prep.split).into(),
        &tc,
        &TrainOptions::checkpointed(&ckpt),
    )
    .expect("the clean run");
    let mut st = load_train_state(&path).expect("a saved state");
    forge(&mut st);
    save_train_state(&st, &path).expect("the forged state");
    let resume = CheckpointConfig {
        resume: true,
        ..ckpt
    };
    match fit(
        &mut model,
        &(&prep.split).into(),
        &tc,
        &TrainOptions::checkpointed(&resume),
    ) {
        Err(TrainError::State(msg)) => assert!(
            msg.contains(&path.display().to_string()) && msg.contains(want),
            "{tag}: {msg}"
        ),
        other => panic!("{tag}: resuming a forged state gave {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Serving: faults never corrupt, recovery is bit-identical
// ---------------------------------------------------------------------------

const NUM_ITEMS: usize = 30;

fn chaos_server() -> ssdrec::serve::ServerHandle {
    let model = SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, 42);
    let engine = Engine::new(
        model.into(),
        EngineConfig {
            workers: 1,
            max_len: 10,
            cache_capacity: 0, // every request must cross the worker
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    );
    serve(engine, "127.0.0.1:0").expect("bind ephemeral port")
}

const REQ: &str = "{\"user\":0,\"seq\":[3,9,4,1],\"k\":8}";

fn post_ok(addr: std::net::SocketAddr, body: &str) -> String {
    let (status, resp) = client::post(addr, "/recommend", body).expect("request");
    assert_eq!(status, 200, "{resp}");
    resp
}

#[test]
fn read_fault_gives_500_then_recovers_bit_identically() {
    let _g = locked();
    let handle = chaos_server();
    let addr = handle.addr();
    let baseline = post_ok(addr, REQ);

    let _armed = FaultPlan::new().error("serve.read", 1).arm_process();
    // The fault fires the moment the connection opens, so depending on the
    // race with the client's own write the client sees either the server's
    // 500 or a transport error (the server closed while it was still
    // sending) — both are honest observations of a failed read.
    match client::post(addr, "/recommend", REQ) {
        Ok((status, body)) => {
            assert_eq!(status, 500, "{body}");
            assert!(body.contains("injected fault at serve.read"), "{body}");
        }
        Err(ClientError::Io(_)) | Err(ClientError::Truncated { .. }) => {}
        Err(other) => panic!("unexpected client error: {other:?}"),
    }
    assert_eq!(
        post_ok(addr, REQ),
        baseline,
        "post-fault response must match the pre-fault bytes"
    );
    assert_fired_exactly("serve.read", 1);
    assert!(
        handle.engine().stats().io_faults.load(Ordering::Relaxed) >= 1,
        "read fault must be counted"
    );
}

#[test]
fn write_fault_is_healed_transparently_by_the_retrying_client() {
    let _g = locked();
    let handle = chaos_server();
    let addr = handle.addr();
    let baseline = post_ok(addr, REQ);

    // Two consecutive dropped responses: a client retrying three times
    // gets through both and lands on the identical bytes.
    let _armed = FaultPlan::new()
        .error("serve.write", 1)
        .error("serve.write", 2)
        .arm_process();
    let (status, body) = (0..3)
        .find_map(|_| client::post(addr, "/recommend", REQ).ok())
        .expect("retry must eventually succeed");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, baseline, "healed response must match baseline bytes");
    assert_fired_exactly("serve.write", 2);
}

#[test]
fn worker_panic_respawns_without_corrupting_results() {
    let _g = locked();
    let handle = chaos_server();
    let addr = handle.addr();
    let baseline = post_ok(addr, REQ);

    let _armed = FaultPlan::new().panic("engine.batch", 1).arm_process();
    // The panicked worker's job is dropped: its caller gets a clean 500.
    let (status, body) = client::post(addr, "/recommend", REQ).expect("request");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("worker failed"), "{body}");
    // The respawned worker serves the identical bytes.
    assert_eq!(post_ok(addr, REQ), baseline);
    assert_fired_exactly("engine.batch", 1);

    // /metrics reports the recovery, including the injection counter
    // (read while still armed — dropping the guard drops its counters).
    let (status, metrics) = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let m = json::parse(&metrics).expect("metrics JSON");
    let faults = m.get("faults").expect("faults section");
    assert_eq!(
        faults.get("worker_panics").unwrap().as_usize(),
        Some(1),
        "{metrics}"
    );
    assert!(
        faults.get("injected_total").unwrap().as_usize().unwrap() >= 1,
        "{metrics}"
    );
}

#[test]
fn overloaded_queue_sheds_with_503_and_never_deadlocks() {
    let _g = locked();
    let model = SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, 42);
    let engine = Arc::new(Engine::new(
        model.into(),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            linger: Duration::from_millis(1),
            cache_capacity: 0,
            max_len: 10,
            max_queue: 1,
            ..EngineConfig::default()
        },
        Arc::new(ServerStats::new()),
    ));

    // Stall the single worker on its first batch while six barrier-released
    // clients pile onto a one-slot queue: at most the stalled batch and one
    // queued job can be in flight, so several requests must shed.
    let _armed = FaultPlan::new()
        .delay_ms("engine.batch", 400, 1)
        .arm_process();
    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                engine
                    .recommend(0, &[1 + c % NUM_ITEMS, 5, 9], 4)
                    .map(|_| ())
            })
        })
        .collect();
    let results: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(RecError::Overloaded)))
        .count();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(shed + ok, clients, "unexpected failure kind in {results:?}");
    assert!(shed >= 1, "no request was shed: {results:?}");
    assert!(ok >= 1, "every request was shed: {results:?}");
    assert_eq!(
        engine.stats().shed_total.load(Ordering::Relaxed),
        shed as u64
    );

    // Post-storm: the queue has drained and fresh requests succeed.
    assert!(engine.recommend(0, &[2, 4, 6], 4).is_ok());
    assert_eq!(engine.queue_depth(), 0, "queue depth must return to zero");
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Streaming: kill mid-retrain / mid-publish / mid-swap, resume, equivalence
// ---------------------------------------------------------------------------

/// Ingest the day-0 history and publish v1 under `dir`.
fn stream_world(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let log_path = dir.join("events.sslg");
    let root = dir.join("ckpts");
    let (mut log, _) = open_or_create_log(&log_path, Some(CATALOG)).expect("create log");
    seed_events(&mut log);
    drop(log);
    match retrain(&log_path, &root, &retrain_spec(3), false).expect("publish v1") {
        RetrainOutcome::Trained(t) => assert_eq!(t.version, 1),
        other => panic!("expected v1, got {other:?}"),
    }
    (log_path, root)
}

fn append_delta(log_path: &std::path::Path) {
    let (mut log, _) = open_or_create_log(log_path, None).expect("reopen log");
    delta_events(&mut log);
}

/// The published parameter bytes of version `v` (the serving artifact; the
/// training-state file carries wall-clock fields and is excluded on purpose).
fn published_model_bytes(root: &std::path::Path, v: u64) -> Vec<u8> {
    std::fs::read(CheckpointDir::new(root).model_path(v)).expect("read published model")
}

/// What an engine booted from `CURRENT` answers for a fixed probe request.
fn stream_served_bits(log_path: &std::path::Path, root: &std::path::Path) -> Vec<(usize, u32)> {
    let cur = load_current(log_path, root)
        .expect("load CURRENT")
        .expect("published");
    let max_len = cur.meta.spec.arch.max_len;
    served_bits(cur.model, max_len)
}

#[test]
fn killed_retrain_resumes_to_bytes_identical_to_uninterrupted_run() {
    let _g = locked();
    let prev_threads = ssdrec::runtime::threads();
    for threads in [1usize, 4] {
        ssdrec::runtime::set_threads(threads);
        let tag = format!("retrain_t{threads}");

        // Reference: v1 → delta → v2, never interrupted, in its own world.
        let (ref_log, ref_root) = stream_world(&scratch_dir(&format!("chaos_stream_{tag}_ref")));
        append_delta(&ref_log);
        match retrain(&ref_log, &ref_root, &retrain_spec(3), false).expect("reference v2") {
            RetrainOutcome::Trained(t) => assert_eq!(t.version, 2),
            other => panic!("expected v2, got {other:?}"),
        }

        // Victim: identical history, but the v2 round is killed by an
        // injected panic right after the epoch-2 work checkpoint.
        let (log, root) = stream_world(&scratch_dir(&format!("chaos_stream_{tag}_victim")));
        append_delta(&log);
        {
            let _armed = FaultPlan::new().panic("train.epoch", 2).arm();
            let died = catch_unwind(AssertUnwindSafe(|| {
                retrain(&log, &root, &retrain_spec(3), false)
            }));
            assert!(died.is_err(), "the injected panic must kill the round");
            assert_fired_exactly("train.epoch", 1);
        }
        let cd = CheckpointDir::new(&root);
        assert_eq!(
            cd.current_version().expect("CURRENT"),
            Some(1),
            "kill must not flip CURRENT"
        );
        assert!(
            cd.work_dir().exists(),
            "the in-flight round must survive the kill"
        );

        // Resume: the re-run picks up the pinned round from work/ and lands
        // on byte-identical published parameters and served response bits.
        match retrain(&log, &root, &retrain_spec(3), false).expect("resumed v2") {
            RetrainOutcome::Trained(t) => assert_eq!(t.version, 2),
            other => panic!("expected v2, got {other:?}"),
        }
        assert!(!cd.work_dir().exists(), "publish must clear work/");
        assert_eq!(
            published_model_bytes(&root, 2),
            published_model_bytes(&ref_root, 2),
            "published v2 parameters diverged after kill+resume (threads={threads})"
        );
        assert_eq!(
            stream_served_bits(&log, &root),
            stream_served_bits(&ref_log, &ref_root),
            "served bytes diverged after kill+resume (threads={threads})"
        );
    }
    ssdrec::runtime::set_threads(prev_threads);
}

#[test]
fn killed_publish_is_rerun_idempotently() {
    let _g = locked();

    let (ref_log, ref_root) = stream_world(&scratch_dir("chaos_stream_publish_ref"));
    append_delta(&ref_log);
    retrain(&ref_log, &ref_root, &retrain_spec(3), false).expect("reference v2");

    let (log, root) = stream_world(&scratch_dir("chaos_stream_publish_victim"));
    let v1_bits = stream_served_bits(&log, &root);
    append_delta(&log);
    // Kill inside the publish sequence: v2's files are being written but
    // CURRENT has not flipped. Readers must still see v1 only.
    {
        let _armed = FaultPlan::new().error("stream.publish", 1).arm();
        let err = retrain(&log, &root, &retrain_spec(3), false)
            .expect_err("the injected publish fault must surface");
        assert!(err.contains("stream.publish"), "{err}");
        assert_fired_exactly("stream.publish", 1);
    }
    let cd = CheckpointDir::new(&root);
    assert_eq!(
        cd.current_version().expect("CURRENT"),
        Some(1),
        "torn publish must not flip CURRENT"
    );
    assert_eq!(
        stream_served_bits(&log, &root),
        v1_bits,
        "CURRENT must still serve v1's bytes"
    );

    // The re-run completes the same pinned round; the published bytes match
    // the never-interrupted reference exactly.
    match retrain(&log, &root, &retrain_spec(3), false).expect("rerun v2") {
        RetrainOutcome::Trained(t) => assert_eq!(t.version, 2),
        other => panic!("expected v2, got {other:?}"),
    }
    assert_eq!(cd.current_version().expect("CURRENT"), Some(2));
    assert_eq!(
        published_model_bytes(&root, 2),
        published_model_bytes(&ref_root, 2),
        "published v2 parameters diverged after a torn publish"
    );
}

#[test]
fn killed_swap_keeps_v1_serving_until_the_retry_lands_v2() {
    use ssdrec::serve::{EngineSlot, LoadedModel, ReloadOutcome};

    let _g = locked();
    let (log_path, root) = stream_world(&scratch_dir("chaos_stream_swap"));

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
            cache_capacity: 0,
            ..EngineConfig::default()
        },
        Arc::clone(&stats),
    );
    let (l, r) = (log_path.clone(), root.clone());
    let slot = EngineSlot::reloadable(
        engine,
        booted.version,
        Box::new(move |current| {
            Ok(
                ssdrec::stream::load_newer(&l, &r, current)?.map(|newer| LoadedModel {
                    model: newer.model.into(),
                    version: newer.version,
                }),
            )
        }),
    );
    let probe = |slot: &EngineSlot| -> Vec<(usize, u32)> {
        let rec = slot
            .engine()
            .recommend(0, &[3, 9, 4, 1], 8)
            .expect("recommend");
        rec.items.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    };
    let v1_bits = probe(&slot);

    // Publish v2, then kill the swap at the deliberate kill point — after
    // the replacement engine is built, before the commit.
    append_delta(&log_path);
    retrain(&log_path, &root, &retrain_spec(3), false).expect("publish v2");
    {
        let _armed = FaultPlan::new().panic("serve.swap", 1).arm();
        let err = slot
            .reload()
            .expect_err("the injected swap fault must surface");
        assert!(err.contains("serve.swap"), "{err}");
        assert_fired_exactly("serve.swap", 1);
    }
    assert_eq!(
        stats.model_version(),
        1,
        "killed swap must not flip the version"
    );
    assert_eq!(stats.swap_failed_total.load(Ordering::SeqCst), 1);
    assert_eq!(
        probe(&slot),
        v1_bits,
        "v1 must keep serving bit-identically after the kill"
    );
    // The replacement was fully built when the kill landed; /metrics must
    // still export the serving engine's one worker, not the casualty's.
    let metrics = json::parse(&stats.to_json()).expect("metrics JSON");
    let workers = metrics.get("workers").expect("workers section");
    assert_eq!(workers.get("count").unwrap().as_usize(), Some(1));
    assert!(workers.get("busy_fraction").unwrap().as_arr().unwrap()[0].as_f64() > Some(0.0));

    // The retry lands v2 and serves exactly the published bytes.
    assert_eq!(
        slot.reload().expect("retry"),
        ReloadOutcome::Swapped { version: 2 }
    );
    assert_eq!(probe(&slot), stream_served_bits(&log_path, &root));
    assert_eq!(stats.swap_total.load(Ordering::SeqCst), 1);
    slot.shutdown();
}
