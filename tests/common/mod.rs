//! Fixtures shared by the root integration suites: one tiny training world
//! with its model, config and run fingerprint, and one tiny online loop.

#![allow(dead_code)] // every suite uses its own subset

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use ssdrec::core::{Prepared, SsdRec};
use ssdrec::data::SyntheticConfig;
use ssdrec::models::{
    fit, BackboneKind, CheckpointConfig, RecModel, TrainConfig, TrainOptions, TrainReport,
};
use ssdrec::serve::{Engine, EngineConfig, ServerStats};
use ssdrec::stream::{ArchSpec, LogHeader, RetrainSpec, StreamLog};
use ssdrec::tensor::save_params;
use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};

pub const DIM: usize = 8;
pub const MAX_LEN: usize = 50;

/// The sports profile at `scale` under `seed`, 5-core filtered, truncated,
/// split (two training prefixes per user) and graphed.
pub fn sports_world(scale: f64, seed: u64) -> Prepared {
    let raw = SyntheticConfig::sports()
        .scaled(scale)
        .with_seed(seed)
        .generate();
    Prepared::new(&raw, MAX_LEN, 2)
}

/// SSDRec over SASRec on `prep`, initialised from `seed`.
pub fn ssdrec_on(prep: &Prepared, seed: u64) -> SsdRec {
    let ctx = prep.context(DIM, seed, BackboneKind::SasRec);
    SsdRec::new(&prep.graph, ctx.ssdrec_config())
}

pub fn train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        seed,
        ..TrainConfig::default()
    }
}

/// `name` under the suite's scratch directory; a stale file or directory
/// of that name is removed first.
pub fn scratch(name: &str) -> PathBuf {
    ssdrec_testkit::scratch_path(concat!(env!("CARGO_TARGET_TMPDIR"), "/ssdrec-test"), name)
}

/// [`scratch`], created as an empty directory.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Everything observable about a finished run, excluding wall-clock times:
/// final-loss bits, HR@10/NDCG@10 bits, and the exact model checkpoint
/// bytes `save_params` would ship to serving.
pub type Fingerprint = (u32, u64, u64, Vec<u8>);

pub fn fingerprint<M: RecModel + ?Sized>(
    report: &TrainReport,
    model: &M,
    tag: &str,
) -> Fingerprint {
    let path = scratch(&format!("fp_{tag}.ssdt"));
    save_params(model.store(), &path).expect("save fingerprint checkpoint");
    let bytes = std::fs::read(&path).expect("read fingerprint checkpoint");
    let _ = std::fs::remove_file(&path);
    (
        report.final_loss.to_bits(),
        report.test.hr10.to_bits(),
        report.test.ndcg10.to_bits(),
        bytes,
    )
}

/// Kill + resume ≡ uninterrupted: a model built by `build` over `prep` and
/// trained 4 epochs straight at `batch_size` must be bit-identical — loss,
/// metrics and checkpoint bytes — to a 4-epoch run killed after epoch 2 and
/// resumed in a fresh model. `tag` keeps the scratch files of concurrent
/// callers apart and labels the failures.
pub fn assert_kill_and_resume_is_bit_identical<M: RecModel>(
    tag: &str,
    prep: &Prepared,
    batch_size: usize,
    build: impl Fn(&Prepared) -> M,
) {
    let tc = TrainConfig {
        batch_size,
        ..train_config(4, 7)
    };
    let split = &prep.split;

    // Reference: 4 epochs straight through (checkpointing on, so the save
    // path itself is part of both runs).
    let straight_state = scratch(&format!("resume_{tag}_straight.sstc"));
    let mut straight = build(prep);
    let straight_report = fit(
        &mut straight,
        &split.into(),
        &tc,
        &TrainOptions::checkpointed(&CheckpointConfig::new(&straight_state)),
    )
    .expect("uninterrupted run");
    let want = fingerprint(&straight_report, &straight, &format!("{tag}_straight"));

    // Kill: an injected panic right after the epoch-2 state save, exactly
    // like a `kill -9` between epochs. The kill must happen inside a 4-epoch
    // run (not a 2-epoch one): the augmentation schedule depends on the
    // configured total, so only an interrupted 4-epoch run shares the
    // uninterrupted prefix.
    let killed_state = scratch(&format!("resume_{tag}_killed.sstc"));
    let mut victim = build(prep);
    {
        let _armed = FaultPlan::new().panic("train.epoch", 2).arm();
        let ckpt = CheckpointConfig::new(&killed_state);
        let died = catch_unwind(AssertUnwindSafe(|| {
            let opts = TrainOptions::checkpointed(&ckpt);
            fit(&mut victim, &split.into(), &tc, &opts)
        }));
        assert!(died.is_err(), "the injected panic must kill the run");
        assert_fired_exactly("train.epoch", 1);
    }
    assert!(
        killed_state.exists(),
        "the epoch-2 state must have survived the kill"
    );

    // Resume into a *fresh* process-equivalent: a brand-new model whose
    // every parameter, optimizer moment and RNG word comes from the file.
    let mut resumed = build(prep);
    let resumed_report = fit(
        &mut resumed,
        &split.into(),
        &tc,
        &TrainOptions::checkpointed(&CheckpointConfig {
            path: killed_state.clone(),
            every: 1,
            resume: true,
        }),
    )
    .expect("resumed run");
    assert_eq!(resumed_report.epochs_run, straight_report.epochs_run);

    let got = fingerprint(&resumed_report, &resumed, &format!("{tag}_resumed"));
    assert_eq!(
        got.0, want.0,
        "{tag}: final-loss bits diverged after resume"
    );
    assert_eq!(got.1, want.1, "{tag}: HR@10 bits diverged after resume");
    assert_eq!(got.2, want.2, "{tag}: NDCG@10 bits diverged after resume");
    assert_eq!(
        got.3, want.3,
        "{tag}: checkpoint bytes diverged after resume"
    );

    let _ = std::fs::remove_file(&straight_state);
    let _ = std::fs::remove_file(&killed_state);
}

/// The catalog of the tiny online loop.
pub const CATALOG: LogHeader = LogHeader {
    num_users: 6,
    num_items: 20,
};

pub fn retrain_spec(epochs: usize) -> RetrainSpec {
    let tc = TrainConfig::default();
    RetrainSpec {
        arch: ArchSpec {
            backbone: BackboneKind::SasRec,
            dim: 8,
            max_len: 12,
            seed: 7,
        },
        epochs,
        batch_size: 16,
        lr: tc.lr,
        weight_decay: tc.weight_decay,
        checkpoint_every: 1,
    }
}

/// Six events per user: enough history for every user to clear the
/// leave-one-out minimum.
pub fn seed_events(log: &mut StreamLog) {
    for u in 0..CATALOG.num_users {
        for t in 0..6 {
            log.append(u, (u * 3 + t) % CATALOG.num_items + 1)
                .expect("append");
        }
    }
    log.sync().expect("sync");
}

/// One more event per user.
pub fn delta_events(log: &mut StreamLog) {
    for u in 0..CATALOG.num_users {
        log.append(u, (u + 7) % CATALOG.num_items + 1)
            .expect("append");
    }
    log.sync().expect("sync");
}

/// What a one-worker, cache-less engine over `model` answers for a fixed
/// probe request.
pub fn served_bits(model: SsdRec, max_len: usize) -> Vec<(usize, u32)> {
    let cfg = EngineConfig {
        workers: 1,
        max_len,
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let engine = Engine::new(model.into(), cfg, Arc::new(ServerStats::new()));
    let rec = engine.recommend(0, &[3, 9, 4, 1], 8).expect("recommend");
    rec.items.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}
