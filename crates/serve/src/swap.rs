//! Zero-downtime model hot-swap.
//!
//! [`EngineSlot`] owns the `Arc`'d [`Engine`] that connection threads serve
//! from. A reload builds a complete replacement engine — frozen tables,
//! fresh worker pool, empty session cache — entirely off to the side, then
//! swaps the `Arc` in one `RwLock` write. Requests that
//! already cloned the old `Arc` finish against the old engine; every
//! request that starts after the swap sees the new one. Nothing in between
//! can observe a torn mix of old and new tables, because a request only
//! ever holds one engine.
//!
//! Protocol invariants:
//!
//! * **ABA / double-flip:** `swap_lock` serializes reloads, and the loader
//!   is offered the version currently being served — a loader that has
//!   nothing newer returns `None`, so concurrent `/reload` storms flip
//!   `model_version` at most once per published version.
//! * **Failure isolation:** load, build, and the `serve.swap` fault site
//!   all run under `catch_unwind` *before* the commit point. Any error or
//!   panic leaves the old engine serving untouched — its busy counters
//!   still exported in `/metrics` — and bumps `swap_failed_total`.
//! * **Drain:** after the commit the old engine is held only by in-flight
//!   requests. The swap waits (bounded) for those to retire, then drops its
//!   own handle; if a straggler still holds the `Arc`, the engine shuts
//!   down when that last request completes. The old engine's `shutdown` is
//!   never invoked while a request might still submit to it.
//! * **Cache invalidation:** the session cache lives inside the engine, so
//!   a swap discards it wholesale — a stale recommendation can never be
//!   served across a version change.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::engine::{Engine, EngineConfig, InferenceModel};
use crate::stats::ServerStats;

/// A model freshly loaded from storage, tagged with its version.
pub struct LoadedModel {
    /// The model to build the replacement engine around.
    pub model: InferenceModel,
    /// Its version (becomes `model_version` in `/metrics`).
    pub version: u64,
}

/// Pluggable model source for reloads.
///
/// Called with the version currently serving; returns `Ok(None)` when
/// nothing newer is available (the cheap common case for pollers), or the
/// new model to swap in.
pub type ModelLoader = dyn Fn(u64) -> Result<Option<LoadedModel>, String> + Send + Sync;

/// What a reload did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// A new model version is now serving.
    Swapped {
        /// The version now serving.
        version: u64,
    },
    /// The loader had nothing newer; the serving engine is unchanged.
    Unchanged {
        /// The version still serving.
        version: u64,
    },
}

/// The swappable slot the server routes every request through.
pub struct EngineSlot {
    slot: RwLock<Arc<Engine>>,
    /// Serializes reloads (the ABA guard); never held while serving.
    swap_lock: Mutex<()>,
    cfg: EngineConfig,
    stats: Arc<ServerStats>,
    loader: Option<Box<ModelLoader>>,
    drain_timeout: Duration,
}

fn read_slot(slot: &RwLock<Arc<Engine>>) -> Arc<Engine> {
    Arc::clone(&slot.read().unwrap_or_else(|p| p.into_inner()))
}

impl EngineSlot {
    /// A slot with no reload source: `/reload` reports an error, the
    /// engine serves for the lifetime of the server. Used by `serve
    /// --model` (a single frozen checkpoint).
    pub fn fixed(engine: Engine) -> EngineSlot {
        let stats = engine.stats_arc();
        let cfg = engine.config().clone();
        EngineSlot {
            slot: RwLock::new(Arc::new(engine)),
            swap_lock: Mutex::new(()),
            cfg,
            stats,
            loader: None,
            drain_timeout: Duration::from_secs(5),
        }
    }

    /// A reloadable slot: `initial_version` pins `model_version` in
    /// `/metrics`, and `loader` is consulted by every [`EngineSlot::reload`].
    pub fn reloadable(
        engine: Engine,
        initial_version: u64,
        loader: Box<ModelLoader>,
    ) -> EngineSlot {
        let slot = EngineSlot::fixed(engine);
        slot.stats.set_model_version(initial_version);
        EngineSlot {
            loader: Some(loader),
            ..slot
        }
    }

    /// True if the slot has a reload source.
    pub fn is_reloadable(&self) -> bool {
        self.loader.is_some()
    }

    /// The engine currently serving. Requests clone the `Arc` once, up
    /// front, and use only that clone — the snapshot is immutable even if a
    /// swap lands mid-request.
    pub fn engine(&self) -> Arc<Engine> {
        read_slot(&self.slot)
    }

    /// The stats shared across every engine this slot will ever hold.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Consult the loader and, if it produces a newer model, swap it in.
    ///
    /// Runs on the calling thread (under a server, its `ssdrec-reload`
    /// thread) — never on the serving path. On any failure the old engine
    /// keeps serving and `swap_failed_total` is bumped.
    pub fn reload(&self) -> Result<ReloadOutcome, String> {
        let loader = self.loader.as_ref().ok_or_else(|| {
            "this server has no reload source (serve from --ckpt-dir)".to_string()
        })?;
        let _serialized = self.swap_lock.lock().unwrap_or_else(|p| p.into_inner());
        let current = self.stats.model_version();
        let t0 = Instant::now();
        let staged = catch_unwind(AssertUnwindSafe(
            || -> Result<Option<(Engine, u64)>, String> {
                let Some(LoadedModel { model, version }) = loader(current)? else {
                    return Ok(None);
                };
                let engine = Engine::build(model, self.cfg.clone(), Arc::clone(&self.stats));
                // Deliberate kill point: after the replacement engine is fully
                // built, before the commit. A fault here must leave the old
                // engine serving.
                ssdrec_faults::point("serve.swap").map_err(|e| e.to_string())?;
                Ok(Some((engine, version)))
            },
        ));
        let staged = match staged {
            Ok(Ok(staged)) => staged,
            Ok(Err(e)) => {
                self.stats
                    .swap_failed_total
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                return Err(format!("model swap failed: {e}"));
            }
            Err(panic) => {
                self.stats
                    .swap_failed_total
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                return Err(format!("model swap panicked: {msg}"));
            }
        };
        let Some((engine, version)) = staged else {
            return Ok(ReloadOutcome::Unchanged { version: current });
        };
        // Commit: one write-lock assignment. Readers block only for the
        // duration of the pointer swap. Only now do the new engine's workers
        // take over the `/metrics` `workers` section.
        engine.publish_workers();
        let old = {
            let mut guard = self.slot.write().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *guard, Arc::new(engine))
        };
        let invalidated = old.cache_len() as u64;
        self.stats
            .note_swap(version, t0.elapsed().as_micros() as u64, invalidated);
        drain(old, self.drain_timeout);
        Ok(ReloadOutcome::Swapped { version })
    }

    /// Shut down the engine currently in the slot (server teardown).
    pub fn shutdown(&self) {
        read_slot(&self.slot).shutdown();
    }
}

/// Retire a just-replaced engine.
///
/// In-flight requests still hold clones of `old`; wait (bounded) for them
/// to finish, then drop our handle. Dropping the final `Arc` runs
/// `Engine::drop → shutdown`, which closes the job channel and joins the
/// workers — so if a straggler outlives the timeout, the engine is torn
/// down by whichever request releases it last, never under its feet.
fn drain(old: Arc<Engine>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while Arc::strong_count(&old) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    drop(old);
}
