//! Step-scoped tensor buffer pool: size-class free-lists recycling the
//! `Vec<f32>` storage behind [`Tensor`](crate::tensor::Tensor).
//!
//! Training rebuilds the whole autograd tape every step, so the same buffer
//! shapes are allocated and dropped over and over. The pool breaks that
//! malloc churn: [`take`] hands out a recycled buffer of at least the
//! requested length, and [`recycle`] returns a consumed buffer to its size
//! class. [`Graph::reset`](crate::graph::Graph::reset) (and `Graph`'s drop)
//! recycle every node value, the reusable
//! [`Gradients`](crate::graph::Gradients) workspace recycles gradient
//! buffers, and the optimizers recycle the gradients they consume — so from
//! the second training step onward nearly every allocation is served from
//! the free-lists.
//!
//! ## Determinism
//!
//! The pool manages only *storage*, never values: every pooled buffer is
//! fully overwritten (or explicitly zeroed via [`take_zeroed`]) before it is
//! read, so pooled and fresh-allocation runs are **bit-identical**. The
//! fresh path stays reachable for verification: set the `SSDREC_POOL=0`
//! environment variable (or call [`set_enabled`]) and every `take` becomes a
//! plain allocation.
//!
//! ## Threading
//!
//! Free-lists are thread-local (no locks on the hot path; serve workers
//! never contend), while the hit/miss/bytes counters aggregate globally so
//! `/metrics` and the bench harness can report one pool view across threads.
//! Buffers recycled on a different thread than they were taken from simply
//! join that thread's free-list.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Smallest pooled buffer: `8` floats (32 bytes). Anything smaller is
/// allocated directly.
const MIN_CLASS_ELEMS: usize = 8;
const MIN_CLASS_LOG2: u32 = MIN_CLASS_ELEMS.trailing_zeros();

/// Free-list length cap per size class; overflow buffers are dropped.
const MAX_BUFFERS_PER_CLASS: usize = 4096;

/// Total bytes one thread's free-lists may hold before recycles are dropped.
const MAX_POOL_BYTES_PER_THREAD: usize = 256 << 20;

/// Snapshot of the pool telemetry counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a free-list (no allocation).
    pub hits: u64,
    /// `take` calls that fell through to the allocator.
    pub misses: u64,
    /// Total bytes handed out from recycled buffers (4 × elements per hit).
    pub bytes_recycled: u64,
}

impl PoolStats {
    /// Hit fraction of all pooled takes (0 when nothing was taken).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas accumulated since an `earlier` snapshot.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes_recycled: self.bytes_recycled.saturating_sub(earlier.bytes_recycled),
        }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_recycled: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_recycled: self.bytes_recycled.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes_recycled.store(0, Ordering::Relaxed);
    }
}

/// Every thread's counters, so [`global_stats`] can sum across live (and
/// finished) threads. Entries are never removed: a dead thread's totals keep
/// contributing to the global view.
fn registry() -> &'static Mutex<Vec<Arc<Counters>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Counters>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadPool {
    /// `classes[c]` holds buffers with `len == capacity-class == 8 << c`.
    classes: Vec<Vec<Vec<f32>>>,
    total_bytes: usize,
    enabled: bool,
    counters: Arc<Counters>,
}

impl ThreadPool {
    fn new() -> Self {
        let enabled = std::env::var("SSDREC_POOL")
            .map(|v| v != "0")
            .unwrap_or(true);
        let counters = Arc::new(Counters::default());
        registry()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&counters));
        ThreadPool {
            classes: Vec::new(),
            total_bytes: 0,
            enabled,
            counters,
        }
    }
}

thread_local! {
    static POOL: RefCell<ThreadPool> = RefCell::new(ThreadPool::new());
}

/// Run `f` against this thread's pool; `fallback` covers thread teardown
/// (the thread-local may already be destroyed while tensors are dropping).
fn with_pool<R>(f: impl FnOnce(&mut ThreadPool) -> R, fallback: impl FnOnce() -> R) -> R {
    POOL.try_with(|p| f(&mut p.borrow_mut()))
        .unwrap_or_else(|_| fallback())
}

/// Smallest class index whose buffer size is ≥ `n` (for takes).
fn class_for_take(n: usize) -> usize {
    let size = n.max(MIN_CLASS_ELEMS).next_power_of_two();
    (size.trailing_zeros() - MIN_CLASS_LOG2) as usize
}

/// Largest class index whose buffer size is ≤ `cap` (for recycles);
/// `None` when the buffer is too small to pool.
fn class_for_recycle(cap: usize) -> Option<usize> {
    if cap < MIN_CLASS_ELEMS {
        return None;
    }
    let size = 1usize << (usize::BITS - 1 - cap.leading_zeros());
    Some((size.trailing_zeros() - MIN_CLASS_LOG2) as usize)
}

fn class_size(c: usize) -> usize {
    MIN_CLASS_ELEMS << c
}

fn take_impl(n: usize, zero: bool) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    with_pool(
        |p| {
            if !p.enabled {
                return vec![0.0; n];
            }
            let c = class_for_take(n);
            if let Some(mut buf) = p.classes.get_mut(c).and_then(|list| list.pop()) {
                p.total_bytes -= buf.len() * 4;
                buf.truncate(n);
                if zero {
                    buf.fill(0.0);
                }
                p.counters.hits.fetch_add(1, Ordering::Relaxed);
                p.counters
                    .bytes_recycled
                    .fetch_add((n * 4) as u64, Ordering::Relaxed);
                buf
            } else {
                p.counters.misses.fetch_add(1, Ordering::Relaxed);
                // Allocate at the class size so the buffer re-enters this
                // exact class when recycled.
                let mut v = Vec::with_capacity(class_size(c));
                v.resize(n, 0.0);
                v
            }
        },
        || vec![0.0; n],
    )
}

/// A buffer of exactly `n` elements with **unspecified contents** (zeros or
/// stale values from a recycled tensor). Callers must overwrite every
/// element; use [`take_zeroed`] when zero-initialisation is load-bearing.
pub fn take(n: usize) -> Vec<f32> {
    take_impl(n, false)
}

/// A buffer of exactly `n` zeros (the pooled replacement for `vec![0.0; n]`).
pub fn take_zeroed(n: usize) -> Vec<f32> {
    take_impl(n, true)
}

/// Return a consumed buffer to its size class. Buffers smaller than the
/// minimum class, overflowing a class cap, or exceeding the per-thread byte
/// budget are simply dropped; with the pool disabled this is a plain drop.
pub fn recycle(v: Vec<f32>) {
    let Some(c) = class_for_recycle(v.capacity()) else {
        return;
    };
    with_pool(
        |p| {
            if !p.enabled {
                return;
            }
            let csize = class_size(c);
            if p.classes.len() <= c {
                p.classes.resize_with(c + 1, Vec::new);
            }
            let list = &mut p.classes[c];
            if list.len() >= MAX_BUFFERS_PER_CLASS
                || p.total_bytes + csize * 4 > MAX_POOL_BYTES_PER_THREAD
            {
                return; // drop the buffer: the pool is full
            }
            let mut v = v;
            // Store at len == class size (≤ capacity, so no reallocation);
            // `resize` zeroes any grown tail, `take` truncates back down.
            v.resize(csize, 0.0);
            p.total_bytes += csize * 4;
            list.push(v);
        },
        || (),
    )
}

/// Enable or disable pooling **for the current thread**. Disabled means
/// every [`take`] allocates fresh, every [`recycle`] drops, and no counters
/// move — the pre-pool allocation behaviour, kept reachable so tests and CI
/// can prove pooled and fresh runs are bit-identical. The initial state
/// comes from the `SSDREC_POOL` environment variable (`0` disables).
pub fn set_enabled(on: bool) {
    with_pool(|p| p.enabled = on, || ())
}

/// Whether pooling is enabled on the current thread.
pub fn is_enabled() -> bool {
    with_pool(|p| p.enabled, || false)
}

/// Telemetry counters of the **current thread** only (safe to delta around
/// a region even while other threads allocate).
pub fn local_stats() -> PoolStats {
    with_pool(|p| p.counters.snapshot(), PoolStats::default)
}

/// Telemetry counters summed over **every** thread that ever used the pool
/// (the `/metrics` and bench-report view).
pub fn global_stats() -> PoolStats {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let mut total = PoolStats::default();
    for c in reg.iter() {
        let s = c.snapshot();
        total.hits += s.hits;
        total.misses += s.misses;
        total.bytes_recycled += s.bytes_recycled;
    }
    total
}

/// Zero the current thread's counters.
pub fn reset_local_stats() {
    with_pool(|p| p.counters.reset(), || ())
}

/// Drop every buffer held by the current thread's free-lists (memory
/// pressure relief; the counters are unaffected).
pub fn clear_local() {
    with_pool(
        |p| {
            p.classes.clear();
            p.total_bytes = 0;
        },
        || (),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that toggle the (thread-local) enable flag or
    /// depend on exact free-list contents against each other; each test
    /// starts from an empty pool and zeroed local counters.
    fn fresh(f: impl FnOnce()) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let was = is_enabled();
        set_enabled(true);
        clear_local();
        reset_local_stats();
        f();
        clear_local();
        set_enabled(was);
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_for_take(1), 0);
        assert_eq!(class_for_take(8), 0);
        assert_eq!(class_for_take(9), 1);
        assert_eq!(class_for_take(16), 1);
        assert_eq!(class_for_take(100), class_for_take(128));
        assert_eq!(class_for_recycle(7), None);
        assert_eq!(class_for_recycle(8), Some(0));
        assert_eq!(class_for_recycle(100), Some(class_for_take(64)));
        assert_eq!(class_size(class_for_take(100)), 128);
    }

    #[test]
    fn take_recycle_take_hits() {
        fresh(|| {
            let v = take(100);
            assert_eq!(v.len(), 100);
            assert_eq!(local_stats().misses, 1);
            recycle(v);
            let w = take(70); // same 128-class as 100
            assert_eq!(w.len(), 70);
            let s = local_stats();
            assert_eq!((s.hits, s.misses), (1, 1));
            assert_eq!(s.bytes_recycled, 70 * 4);
            recycle(w);
        });
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        fresh(|| {
            let mut v = take(32);
            v.fill(7.5);
            recycle(v);
            let z = take_zeroed(20); // same 32-class as the dirty buffer
            assert_eq!(local_stats().hits, 1, "must reuse the dirty buffer");
            assert!(z.iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    fn disabled_pool_neither_stores_nor_counts() {
        fresh(|| {
            set_enabled(false);
            let v = take(64);
            assert!(v.iter().all(|&x| x == 0.0));
            recycle(v);
            let w = take(64);
            recycle(w);
            set_enabled(true);
            let s = local_stats();
            assert_eq!((s.hits, s.misses, s.bytes_recycled), (0, 0, 0));
            // Nothing was stored while disabled: the next take must miss.
            let x = take(64);
            assert_eq!(local_stats().misses, 1);
            recycle(x);
        });
    }

    #[test]
    fn zero_length_take_is_free() {
        fresh(|| {
            assert!(take(0).is_empty());
            assert!(take_zeroed(0).is_empty());
            let s = local_stats();
            assert_eq!(s.hits + s.misses, 0);
        });
    }

    #[test]
    fn stats_since_computes_deltas() {
        let a = PoolStats {
            hits: 10,
            misses: 4,
            bytes_recycled: 100,
        };
        let b = PoolStats {
            hits: 25,
            misses: 5,
            bytes_recycled: 300,
        };
        let d = b.since(&a);
        assert_eq!((d.hits, d.misses, d.bytes_recycled), (15, 1, 200));
        assert!((d.hit_rate() - 15.0 / 16.0).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn global_stats_cover_other_threads() {
        // Other tests allocate concurrently, so only the *delta* around the
        // spawned thread is asserted — it must include that thread's one
        // miss and one hit, which local_stats (ours) never sees.
        fresh(|| {
            let local_before = local_stats();
            let global_before = global_stats();
            std::thread::spawn(|| {
                set_enabled(true);
                let v = take(1 << 20);
                recycle(v);
                let v = take(1 << 20);
                recycle(v);
            })
            .join()
            .unwrap();
            let d = global_stats().since(&global_before);
            assert!(d.hits >= 1 && d.misses >= 1, "delta {d:?}");
            assert_eq!(local_stats(), local_before, "stayed off this thread");
        });
    }
}
