//! Hot-swap behaviour of the [`EngineSlot`]: version bookkeeping, session
//! cache purging (a stale cached recommendation can never outlive a swap),
//! failure isolation, and zero dropped requests under concurrent load.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ssdrec_models::{BackboneKind, SeqRec};
use ssdrec_serve::{
    Engine, EngineConfig, EngineSlot, InferenceModel, LoadedModel, Recommendation, ReloadOutcome,
    ServerStats,
};

const NUM_ITEMS: usize = 30;

fn model(seed: u64) -> InferenceModel {
    SeqRec::new(BackboneKind::SasRec, NUM_ITEMS, 8, 10, seed).into()
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        workers: 2,
        max_batch: 8,
        linger: Duration::from_millis(0),
        cache_capacity: 64,
        max_len: 10,
        ..EngineConfig::default()
    }
}

fn engine(seed: u64, stats: Arc<ServerStats>) -> Engine {
    Engine::new(model(seed), engine_cfg(), stats)
}

fn bits(rec: &Recommendation) -> Vec<(usize, u32)> {
    rec.items.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// What a standalone engine built from `seed` answers — the oracle a
/// post-swap response must match bit-for-bit.
fn reference_bits(seed: u64, user: usize, seq: &[usize], k: usize) -> Vec<(usize, u32)> {
    let e = engine(seed, Arc::new(ServerStats::new()));
    let rec = e.recommend(user, seq, k).expect("reference recommend");
    bits(&rec)
}

/// `workers.count` as `/metrics` reports it.
fn exported_workers(stats: &ServerStats) -> usize {
    let metrics = ssdrec_serve::json::parse(&stats.to_json()).expect("metrics JSON");
    let workers = metrics.get("workers").expect("workers section");
    workers.get("count").unwrap().as_usize().unwrap()
}

/// A loader that serves `seed_for(version)` models up to `max_version`.
fn step_loader(max_version: u64) -> Box<ssdrec_serve::ModelLoader> {
    Box::new(move |current| {
        if current >= max_version {
            return Ok(None);
        }
        Ok(Some(LoadedModel {
            model: model(current + 1),
            version: current + 1,
        }))
    })
}

#[test]
fn reload_swaps_model_and_purges_session_cache() {
    let stats = Arc::new(ServerStats::new());
    let slot = EngineSlot::reloadable(engine(1, Arc::clone(&stats)), 1, step_loader(2));
    let seq = vec![1, 2, 3];

    // Prime the session cache on v1 and prove the second answer is a hit.
    let first = slot.engine().recommend(0, &seq, 5).expect("v1 recommend");
    let hit = slot.engine().recommend(0, &seq, 5).expect("v1 cache hit");
    assert!(
        Arc::ptr_eq(&first, &hit),
        "second request must be a cache hit"
    );
    assert_eq!(stats.cache_hits.load(Ordering::Relaxed), 1);
    assert_eq!(bits(&first), reference_bits(1, 0, &seq, 5));

    // Swap to v2.
    assert_eq!(
        slot.reload().expect("reload"),
        ReloadOutcome::Swapped { version: 2 }
    );
    assert_eq!(stats.model_version(), 2);
    assert_eq!(stats.swap_total.load(Ordering::Relaxed), 1);
    assert_eq!(stats.sessions_invalidated_total.load(Ordering::Relaxed), 1);

    // Regression (the stale-cache hazard): the same request must now be
    // recomputed under the new model — never served from the old cache.
    let hits_before = stats.cache_hits.load(Ordering::Relaxed);
    let after = slot.engine().recommend(0, &seq, 5).expect("v2 recommend");
    assert_eq!(
        stats.cache_hits.load(Ordering::Relaxed),
        hits_before,
        "must not hit stale cache"
    );
    assert_eq!(
        bits(&after),
        reference_bits(2, 0, &seq, 5),
        "answer must be the new model's"
    );
    assert_ne!(
        bits(&after),
        bits(&first),
        "models with different params must differ"
    );

    // Idempotence / ABA: nothing newer → unchanged, version flips once.
    assert_eq!(
        slot.reload().expect("reload again"),
        ReloadOutcome::Unchanged { version: 2 }
    );
    assert_eq!(stats.swap_total.load(Ordering::Relaxed), 1);
}

#[test]
fn fixed_slot_refuses_reload() {
    let slot = EngineSlot::fixed(engine(1, Arc::new(ServerStats::new())));
    assert!(!slot.is_reloadable());
    let err = slot.reload().expect_err("fixed slot cannot reload");
    assert!(err.contains("no reload source"), "got: {err}");
}

#[test]
fn failed_swap_keeps_old_model_serving() {
    let stats = Arc::new(ServerStats::new());
    let fail_loads = Arc::new(AtomicU64::new(1));
    let loader_fails = Arc::clone(&fail_loads);
    let loader: Box<ssdrec_serve::ModelLoader> = Box::new(move |current| {
        if loader_fails.swap(0, Ordering::SeqCst) == 1 {
            Err("disk on fire".to_string())
        } else if current >= 2 {
            Ok(None)
        } else {
            Ok(Some(LoadedModel {
                model: model(2),
                version: 2,
            }))
        }
    });
    let slot = EngineSlot::reloadable(engine(1, Arc::clone(&stats)), 1, loader);
    let seq = vec![4, 5];
    assert_eq!(exported_workers(&stats), engine_cfg().workers);

    let err = slot.reload().expect_err("first reload fails");
    assert!(err.contains("disk on fire"), "got: {err}");
    assert_eq!(stats.swap_failed_total.load(Ordering::Relaxed), 1);
    assert_eq!(
        exported_workers(&stats),
        engine_cfg().workers,
        "the serving engine's busy counters must stay in /metrics"
    );
    assert_eq!(
        stats.model_version(),
        1,
        "failed swap must not bump the version"
    );
    let rec = slot.engine().recommend(0, &seq, 5).expect("still serving");
    assert_eq!(
        bits(&rec),
        reference_bits(1, 0, &seq, 5),
        "old model still answers"
    );

    // The retry succeeds and lands on v2.
    assert_eq!(
        slot.reload().expect("retry"),
        ReloadOutcome::Swapped { version: 2 }
    );
    let rec = slot.engine().recommend(0, &seq, 5).expect("v2 serving");
    assert_eq!(bits(&rec), reference_bits(2, 0, &seq, 5));
}

#[test]
fn concurrent_load_sees_zero_drops_and_single_version_flip() {
    let stats = Arc::new(ServerStats::new());
    let slot = Arc::new(EngineSlot::reloadable(
        engine(1, Arc::clone(&stats)),
        1,
        step_loader(2),
    ));

    // Each client runs at least `ROUNDS` requests and keeps going until it
    // has sent `AFTER_SWAP` requests that started after the swap returned;
    // the swap waits until `CLIENTS` answers have come back. Nothing depends
    // on timing; the deadline only bounds a hang.
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 60;
    const AFTER_SWAP: usize = 3;
    let deadline = Instant::now() + Duration::from_secs(60);
    let answered = Arc::new(AtomicUsize::new(0));
    let swapped = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let slot = Arc::clone(&slot);
            let barrier = Arc::clone(&barrier);
            let (answered, swapped) = (Arc::clone(&answered), Arc::clone(&swapped));
            std::thread::spawn(move || {
                barrier.wait();
                let mut answers = Vec::with_capacity(ROUNDS);
                let mut after_swap = 0;
                for r in 0.. {
                    let post_swap = swapped.load(Ordering::SeqCst);
                    // Distinct seqs within the first rounds, so they are not
                    // answered from the cache.
                    let seq = vec![
                        c % NUM_ITEMS + 1,
                        (c + r) % NUM_ITEMS + 1,
                        (c + 2 * r + 7) % NUM_ITEMS + 1,
                    ];
                    let rec = slot
                        .engine()
                        .recommend(c, &seq, 5)
                        .expect("no request may fail across the swap");
                    answers.push((seq, bits(&rec)));
                    answered.fetch_add(1, Ordering::SeqCst);
                    after_swap += usize::from(post_swap);
                    if r + 1 >= ROUNDS && after_swap >= AFTER_SWAP {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "client {c} did not see the swap land"
                    );
                }
                answers
            })
        })
        .collect();

    barrier.wait();
    // Swap mid-stream, once answers are coming back. Extra reloads while
    // loaded must not flip the version again.
    while answered.load(Ordering::SeqCst) < CLIENTS {
        assert!(Instant::now() < deadline, "the clients never got going");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        slot.reload().expect("swap"),
        ReloadOutcome::Swapped { version: 2 }
    );
    swapped.store(true, Ordering::SeqCst);
    assert_eq!(
        slot.reload().expect("noop"),
        ReloadOutcome::Unchanged { version: 2 }
    );

    // Long-lived oracles for both versions (scores depend only on the
    // sequence, so one engine per seed answers for every client).
    let v1 = engine(1, Arc::new(ServerStats::new()));
    let v2 = engine(2, Arc::new(ServerStats::new()));
    let mut old_answers = 0usize;
    let mut new_answers = 0usize;
    for t in clients {
        for (seq, got) in t.join().expect("client thread") {
            // Every answer is entirely v1's or entirely v2's — a torn blend
            // would match neither oracle.
            let want_v1 = bits(&v1.recommend(0, &seq, 5).expect("v1 oracle"));
            let want_v2 = bits(&v2.recommend(0, &seq, 5).expect("v2 oracle"));
            if got == want_v2 {
                new_answers += 1;
            } else if got == want_v1 {
                old_answers += 1;
            } else {
                panic!("answer for {seq:?} matches neither the old nor the new model");
            }
        }
    }
    assert_eq!(old_answers + new_answers, answered.load(Ordering::SeqCst));
    assert!(old_answers > 0, "the swap must not land before the run");
    assert!(new_answers > 0, "the swap must have landed during the run");
    assert_eq!(stats.model_version(), 2);
    assert_eq!(
        stats.swap_total.load(Ordering::Relaxed),
        1,
        "version flips exactly once"
    );
    assert_eq!(stats.swap_failed_total.load(Ordering::Relaxed), 0);
    assert_eq!(
        stats.shed_total.load(Ordering::Relaxed),
        0,
        "no deliberate shedding configured"
    );
}
