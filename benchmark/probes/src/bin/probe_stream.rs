//! `probe_stream` — the online loop layer by layer, on `online_loop`'s log:
//! append and sync, replay, materialising the model skeleton, a full and a
//! delta retrain round, loading a published version, and an in-process
//! hot swap under a closed-loop caller.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdrec_benchmark_driver::gen::{self, Catalogue};
use ssdrec_benchmark_driver::sizes::number;
use ssdrec_benchmark_probes::{beauty, median, parse_request, Probe};
use ssdrec_models::{BackboneKind, TrainConfig};
use ssdrec_serve::{
    Engine, EngineConfig, EngineSlot, LoadedModel, ModelLoader, ReloadOutcome, ServerStats,
};
use ssdrec_stream::{
    load_current, load_newer, load_version, materialize_model, replay, retrain, ArchSpec,
    LogHeader, RetrainOutcome, RetrainSpec, StreamLog, HEADER_LEN,
};

fn parse_events(list: &str) -> Vec<(usize, usize)> {
    list.split(',')
        .map(|pair| {
            let (u, i) = pair.split_once(':').expect("user:item");
            (u.parse().expect("user"), i.parse().expect("item"))
        })
        .collect()
}

fn retrain_round(log: &Path, root: &Path, spec: &RetrainSpec, want: u64) {
    match retrain(log, root, spec, false).expect("retrain") {
        RetrainOutcome::Trained(t) => assert_eq!(t.version, want, "published version"),
        RetrainOutcome::UpToDate { version } => panic!("nothing to train past v{version}"),
    }
}

fn main() {
    let mut p = Probe::start("probe_stream");
    let sz = p.sizes;
    let history = beauty(sz.online_scale, p.seed);
    let header = LogHeader {
        num_users: history.num_users,
        num_items: history.num_items,
    };
    let cat = Catalogue {
        users: header.num_users,
        items: header.num_items,
    };
    // The bulk load `ssdrec ingest --profile` makes: user-major, in order.
    let bulk: Vec<(usize, usize)> = history
        .sequences
        .iter()
        .enumerate()
        .flat_map(|(u, seq)| seq.iter().map(move |&i| (u, i)))
        .collect();
    let defaults = TrainConfig::default();
    let spec = RetrainSpec {
        arch: ArchSpec {
            backbone: BackboneKind::SasRec,
            dim: number(sz.online_dim) as usize,
            max_len: sz.online_max_len,
            seed: p.seed,
        },
        epochs: 1,
        batch_size: 64,
        lr: defaults.lr,
        weight_decay: defaults.weight_decay,
        checkpoint_every: 1,
    };

    // log: append every record, then one sync.
    let (mut append_ms, mut sync_ms) = (Vec::new(), Vec::new());
    for rep in 0..p.reps(5) {
        let path = p.work.join(format!("append{rep}.sslg"));
        let mut log = StreamLog::create(&path, header).expect("create the log");
        let events = bulk.iter().copied();
        append_ms.push(
            p.timed("stream.append", p.root(), |_| {
                log.append_all(events).expect("append")
            })
            .1,
        );
        sync_ms.push(
            p.timed("stream.sync", p.root(), |_| log.sync().expect("sync"))
                .1,
        );
    }
    let log_path = p.work.join("append0.sslg");
    let end = StreamLog::open(&log_path).expect("reopen the log").0.end();
    let replay_ms = p.median_ms("stream.replay", p.reps(30), || {
        std::hint::black_box(replay(&log_path, HEADER_LEN, end).expect("replay"));
    });
    let events = replay(&log_path, HEADER_LEN, end).expect("replay");
    // Split + graph + model skeleton: paid by every retrain and every load.
    let materialize_ms = p.median_ms("stream.materialize", p.reps(5), || {
        std::hint::black_box(materialize_model(header, &events, &spec).expect("materialize"));
    });

    // Retrain rounds: v1 from the whole log, v2 warm-started on a delta of
    // one event per user (what an `online_loop` round ingests).
    let (mut full_s, mut delta_s) = (Vec::new(), Vec::new());
    let rounds = p.reps(2);
    for rep in 0..rounds {
        let log = p.work.join(format!("round{rep}.sslg"));
        let root = p.work.join(format!("ckpt{rep}"));
        std::fs::copy(&log_path, &log).expect("copy the log");
        full_s.push(
            p.timed("stream.retrain_full", p.root(), |_| {
                retrain_round(&log, &root, &spec, 1)
            })
            .1 / 1e3,
        );
        if rep + 1 == rounds {
            break; // the last directory's delta round runs under the swap below
        }
        let delta = parse_events(&gen::event_list(
            p.seed.wrapping_add(rep as u64),
            cat.users,
            cat,
        ));
        let mut writer = StreamLog::open(&log).expect("open the log").0;
        writer.append_all(delta).expect("append the delta");
        writer.sync().expect("sync");
        delta_s.push(
            p.timed("stream.retrain_delta", p.root(), |_| {
                retrain_round(&log, &root, &spec, 2)
            })
            .1 / 1e3,
        );
    }

    // A live slot on v1; publish v2 beside it, then swap while a caller
    // keeps asking. The caller's slowest request is the pause a swap costs.
    let log = p.work.join(format!("round{}.sslg", rounds - 1));
    let root = p.work.join(format!("ckpt{}", rounds - 1));
    let v1 = load_current(&log, &root)
        .expect("load v1")
        .expect("v1 is published");
    let cfg = EngineConfig {
        max_len: spec.arch.max_len,
        ..EngineConfig::default()
    };
    let engine = Engine::new(v1.model.into(), cfg, Arc::new(ServerStats::new()));
    let loader: Box<ModelLoader> = {
        let (log, root) = (log.clone(), root.clone());
        Box::new(move |current| {
            Ok(load_newer(&log, &root, current)?.map(|newer| LoadedModel {
                model: newer.model.into(),
                version: newer.version,
            }))
        })
    };
    let slot = EngineSlot::reloadable(engine, 1, loader);
    let delta = parse_events(&gen::event_list(
        p.seed.wrapping_add(rounds as u64),
        cat.users,
        cat,
    ));
    let mut writer = StreamLog::open(&log).expect("open the log").0;
    writer.append_all(delta).expect("append the delta");
    writer.sync().expect("sync");
    drop(writer);
    delta_s.push(
        p.timed("stream.retrain_delta", p.root(), |_| {
            retrain_round(&log, &root, &spec, 2)
        })
        .1 / 1e3,
    );
    let load_ms = p.median_ms("stream.load_version", p.reps(3), || {
        std::hint::black_box(load_version(&log, &root, 2).expect("load v2"));
    });

    let bodies = gen::request_pool(p.seed, 200, 1, cat, (3, spec.arch.max_len), 10);
    let requests: Vec<(usize, Vec<usize>)> = bodies.iter().map(|b| parse_request(b)).collect();
    let stop = AtomicBool::new(false);
    let (reload_ms, pause_ms) = std::thread::scope(|s| {
        let caller = s.spawn(|| {
            let mut slowest = Duration::ZERO;
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                let (user, seq) = &requests[i % requests.len()];
                i += 1;
                let t0 = Instant::now();
                slot.engine()
                    .recommend(*user, seq, 10)
                    .expect("recommend across the swap");
                slowest = slowest.max(t0.elapsed());
            }
            slowest
        });
        // Let the caller reach its stride before the swap lands.
        std::thread::sleep(Duration::from_millis(if p.smoke { 20 } else { 100 }));
        let (outcome, ms) = p.timed("serve.reload", p.root(), |_| slot.reload());
        assert_eq!(outcome, Ok(ReloadOutcome::Swapped { version: 2 }));
        std::thread::sleep(Duration::from_millis(if p.smoke { 20 } else { 100 }));
        stop.store(true, Ordering::Relaxed);
        (ms, caller.join().expect("caller").as_secs_f64() * 1e3)
    });
    slot.shutdown();

    let (full, delta) = (median(&full_s), median(&delta_s));
    p.note(format!(
        "{} users, {} items, {} records; delta rounds add {} events; d = {}, max_len {}",
        header.num_users,
        header.num_items,
        bulk.len(),
        cat.users,
        spec.arch.dim,
        spec.arch.max_len
    ));
    p.metric(
        "stream.append_krec_per_s",
        bulk.len() as f64 / median(&append_ms),
        "k/s",
    );
    p.metric("stream.sync_ms", median(&sync_ms), "ms");
    p.metric("stream.replay_ms", replay_ms, "ms");
    p.metric("stream.materialize_ms", materialize_ms, "ms");
    p.metric("stream.retrain_full_s", full, "s");
    p.metric("stream.retrain_delta_s", delta, "s");
    p.metric("stream.delta_over_full", delta / full, "ratio");
    p.metric("stream.load_version_ms", load_ms, "ms");
    p.metric("serve.reload_ms", reload_ms, "ms");
    p.metric("serve.swap_pause_max_ms", pause_ms, "ms");
    p.finish();
}
