//! The persistent chunked thread pool and the three parallel primitives.
//!
//! Execution model: a parallel call splits `0..len` into `ceil(len/grain)`
//! fixed chunks, publishes the call to a shared injector queue, and then
//! **participates itself**, racing the pool workers for chunk indices off a
//! single atomic counter. The caller returns only when every chunk has
//! finished. Because the caller always helps, a call never waits for a free
//! worker: with zero workers (or a busy pool, or a nested call from inside
//! a worker) it simply degrades to sequential execution of the same chunks
//! — same boundaries, same per-chunk code, same bits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lock a mutex, recovering from poisoning (a panicked sibling chunk must
/// not wedge the whole pool — the panic is re-raised on the calling thread).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One in-flight parallel call: a lifetime-erased task plus chunk-claiming
/// and completion state. Workers that pop a `Call` whose chunks are already
/// exhausted return immediately without touching the task pointer, so the
/// pointer is only ever dereferenced while the issuing `parallel_for` frame
/// is still blocked in [`Call::wait`].
struct Call {
    /// The chunk body, `f(start, end)`. Raw fat pointer because the closure
    /// borrows the caller's stack; validity is guaranteed by `wait()`.
    task: *const (dyn Fn(usize, usize) + Sync),
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Total chunks (fixed by `len`/`grain`, never by thread count).
    chunks: usize,
    grain: usize,
    len: usize,
    /// Chunks not yet finished; guarded so completion can be awaited.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any chunk, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `task` is only dereferenced by `run_chunks` while the issuing
// caller is alive inside `parallel_for` (it blocks until `remaining == 0`,
// and no chunk can begin after `next >= chunks`). All other fields are
// Send + Sync by construction.
unsafe impl Send for Call {}
unsafe impl Sync for Call {}

impl Call {
    /// Claim and run chunks until the counter is exhausted. Called by the
    /// issuing thread and by any worker that popped this call.
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            let start = i * self.grain;
            let end = ((i + 1) * self.grain).min(self.len);
            // SAFETY: i < chunks ⇒ the caller is still blocked in wait().
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(start, end))) {
                let mut slot = lock(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut rem = lock(&self.remaining);
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until every chunk has finished, then re-raise the first panic.
    fn wait(&self) {
        let mut rem = lock(&self.remaining);
        while *rem > 0 {
            rem = match self.done.wait(rem) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        drop(rem);
        if let Some(payload) = lock(&self.panic).take() {
            resume_unwind(payload);
        }
    }
}

struct State {
    queue: VecDeque<Arc<Call>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
}

fn worker_loop(shared: &Shared) {
    loop {
        let call = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(c) = st.queue.pop_front() {
                    break c;
                }
                st = match shared.work.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        call.run_chunks();
    }
}

/// A persistent chunked thread pool. `Pool::new(t)` spawns `t − 1` helper
/// threads — the thread issuing a parallel call is always the `t`-th
/// participant. Dropping the pool signals shutdown and joins every helper.
///
/// Most code uses the process-global pool through the free functions
/// ([`parallel_for`] etc.); explicit instances exist for tests that need a
/// private pool without mutating global state.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// A pool where parallel calls run on `threads` total threads (the
    /// caller plus `threads − 1` spawned helpers). `threads` must be ≥ 1.
    pub fn new(threads: usize) -> Pool {
        assert!(threads >= 1, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ssdrec-rt-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runtime worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
        }
    }

    /// Total threads participating in parallel calls (helpers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(start, end)` over `ceil(len/grain)` fixed chunks of `0..len`,
    /// in parallel. `f` must only write data disjoint between chunks; under
    /// that contract the result is bit-identical at every thread count.
    /// Panics in `f` are forwarded to the caller after all chunks settle.
    pub fn parallel_for(&self, len: usize, grain: usize, f: impl Fn(usize, usize) + Sync) {
        if len == 0 {
            return;
        }
        let grain = grain.max(1);
        let chunks = len.div_ceil(grain);
        if chunks == 1 || self.threads == 1 {
            // Sequential base case of the same contract: identical chunk
            // boundaries, one chunk after another on the calling thread.
            let mut start = 0;
            while start < len {
                let end = (start + grain).min(len);
                f(start, end);
                start = end;
            }
            return;
        }
        // SAFETY (lifetime erasure): the Call is fully settled — every
        // claimed chunk finished, no chunk claimable — before wait()
        // returns below, so `f` outlives every dereference of `task`.
        let task: *const (dyn Fn(usize, usize) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                *const (dyn Fn(usize, usize) + Sync),
            >(&f)
        };
        let call = Arc::new(Call {
            task,
            next: AtomicUsize::new(0),
            chunks,
            grain,
            len,
            remaining: Mutex::new(chunks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let helpers = (self.threads - 1).min(chunks - 1);
        {
            let mut st = lock(&self.shared.state);
            for _ in 0..helpers {
                st.queue.push_back(Arc::clone(&call));
            }
        }
        if helpers == 1 {
            self.shared.work.notify_one();
        } else {
            self.shared.work.notify_all();
        }
        call.run_chunks();
        call.wait();
    }

    /// Split `data` into fixed chunks of `chunk_len` elements and run
    /// `f(chunk_index, chunk)` over them in parallel. The safe disjoint
    /// `&mut` facade over [`Pool::parallel_for`].
    pub fn parallel_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let n = data.len();
        if n == 0 {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let nchunks = n.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.parallel_for(nchunks, 1, move |cs, ce| {
            for ci in cs..ce {
                let start = ci * chunk_len;
                let end = ((ci + 1) * chunk_len).min(n);
                // SAFETY: chunk ranges [start, end) are pairwise disjoint
                // sub-slices of `data`, which outlives the call (the caller
                // blocks until completion).
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                f(ci, chunk);
            }
        });
    }

    /// Map fixed chunks of `0..len` through `map(start, end)` in parallel,
    /// then combine the per-chunk partials with a **fixed-shape pairwise
    /// tree** of `fold` calls: `[p0 p1 p2 p3 p4] → [f(p0,p1) f(p2,p3) p4] →
    /// …`. The tree shape depends only on the chunk count, so the result —
    /// including any floating-point rounding — is independent of the thread
    /// count. Returns `None` for `len == 0`.
    pub fn parallel_reduce<T: Send>(
        &self,
        len: usize,
        grain: usize,
        map: impl Fn(usize, usize) -> T + Sync,
        fold: impl Fn(T, T) -> T,
    ) -> Option<T> {
        if len == 0 {
            return None;
        }
        let grain = grain.max(1);
        let chunks = len.div_ceil(grain);
        let mut partials: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
        {
            let slots = SendPtr(partials.as_mut_ptr());
            self.parallel_for(len, grain, move |start, end| {
                let ci = start / grain;
                let v = map(start, end);
                // SAFETY: each chunk index is claimed exactly once, so each
                // slot is written by exactly one thread; the completion
                // handshake in parallel_for orders the writes before the
                // reads below.
                unsafe { *slots.get().add(ci) = Some(v) };
            });
        }
        let mut layer: Vec<T> = partials
            .into_iter()
            .map(|p| p.expect("every chunk ran"))
            .collect();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(fold(a, b)),
                    None => next.push(a),
                }
            }
            layer = next;
        }
        layer.pop()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        // A worker can drop the last handle on its own pool (a nested global
        // call that outlived `set_threads`); it exits its loop on return
        // instead of joining itself.
        let me = std::thread::current().id();
        for h in self.handles.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

/// A raw pointer that may cross threads. Used only for provably disjoint
/// writes inside a single parallel call.
struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so edition-2021 closures
    /// capture the `Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// ---------------------------------------------------------------------------
// The process-global pool.
// ---------------------------------------------------------------------------

/// The global pool. A call clones the `Arc` under the lock and runs outside
/// it, so a global call made inside a chunk, and independent callers on
/// different threads, never wait on this mutex for each other's calls.
static GLOBAL: Mutex<Option<Arc<Pool>>> = Mutex::new(None);
/// Cached thread count for the hot-path gate (0 = pool not yet created).
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SSDREC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return clamp_to_cores(n, "SSDREC_THREADS");
            }
        }
        eprintln!("SSDREC_THREADS={v:?} is not a positive integer; using auto detection");
    }
    available_cores()
}

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A requested thread count capped at [`available_cores`], with one stderr
/// line naming `source` when it had to cap: more threads than cores only
/// time-slice the parallel regions against each other (results are the
/// same at any count). [`set_threads`] itself stays exact, so tests can
/// oversubscribe on purpose.
pub fn clamp_to_cores(requested: usize, source: &str) -> usize {
    let cores = available_cores();
    if requested <= cores {
        return requested;
    }
    eprintln!("{source}={requested} exceeds the {cores} available cores; using {cores}");
    cores
}

/// The thread count parallel calls will use, spawning the global pool on
/// first call (`SSDREC_THREADS` capped at the cores, else all of them).
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    global().threads()
}

/// A handle on the global pool, spawning it on first use.
fn global() -> Arc<Pool> {
    let mut g = lock(&GLOBAL);
    let pool = g.get_or_insert_with(|| {
        let n = default_threads();
        THREADS.store(n, Ordering::Relaxed);
        Arc::new(Pool::new(n))
    });
    Arc::clone(pool)
}

/// Reconfigure the global pool to `threads` total threads (≥ 1), joining
/// the old workers first. Used by `--threads N` and the bench sweep.
///
/// Call it only between parallel regions: a call still running on the old
/// pool keeps it alive, and the old workers are then joined when that call
/// returns instead of here.
pub fn set_threads(threads: usize) {
    assert!(threads >= 1, "set_threads needs at least one thread");
    let mut g = lock(&GLOBAL);
    // Drop (and join) any previous pool before spawning the new one.
    *g = None;
    *g = Some(Arc::new(Pool::new(threads)));
    THREADS.store(threads, Ordering::Relaxed);
}

fn with_global<R>(f: impl FnOnce(&Pool) -> R) -> R {
    f(&global())
}

/// [`Pool::parallel_for`] on the global pool.
pub fn parallel_for(len: usize, grain: usize, f: impl Fn(usize, usize) + Sync) {
    with_global(|p| p.parallel_for(len, grain, f))
}

/// [`Pool::parallel_chunks_mut`] on the global pool.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    with_global(|p| p.parallel_chunks_mut(data, chunk_len, f))
}

/// [`Pool::parallel_reduce`] on the global pool.
pub fn parallel_reduce<T: Send>(
    len: usize,
    grain: usize,
    map: impl Fn(usize, usize) -> T + Sync,
    fold: impl Fn(T, T) -> T,
) -> Option<T> {
    with_global(|p| p.parallel_reduce(len, grain, map, fold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        for (len, grain) in [(1usize, 1usize), (7, 2), (100, 7), (64, 64), (65, 64)] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(len, grain, |s, e| {
                for i in s..e {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "len={len} grain={grain}"
            );
        }
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        // Record the (start, end) set at several thread counts; must match.
        let bounds = |threads: usize| -> Vec<(usize, usize)> {
            let pool = Pool::new(threads);
            let out: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
            pool.parallel_for(103, 10, |s, e| lock(&out).push((s, e)));
            let mut v = lock(&out).clone();
            v.sort_unstable();
            v
        };
        let one = bounds(1);
        assert_eq!(one, bounds(2));
        assert_eq!(one, bounds(7));
        assert_eq!(one.len(), 11);
        assert_eq!(one[0], (0, 10));
        assert_eq!(*one.last().unwrap(), (100, 103));
    }

    #[test]
    fn chunks_mut_partitions_disjointly() {
        let pool = Pool::new(3);
        let mut data = vec![0u32; 50];
        pool.parallel_chunks_mut(&mut data, 7, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + ci as u32 * 100;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (i / 7) as u32 * 100, "index {i}");
        }
    }

    #[test]
    fn reduce_matches_sequential_fold_exactly() {
        let pool = Pool::new(4);
        let xs: Vec<u64> = (0..1000).map(|i| i * 37 % 101).collect();
        let par = pool
            .parallel_reduce(
                xs.len(),
                64,
                |s, e| xs[s..e].iter().copied().sum::<u64>(),
                |a, b| a + b,
            )
            .unwrap();
        assert_eq!(par, xs.iter().sum::<u64>());
        assert_eq!(pool.parallel_reduce(0, 8, |_, _| 1u64, |a, b| a + b), None);
    }

    #[test]
    fn reduce_tree_shape_is_thread_independent() {
        // A non-commutative fold (string concat) exposes any ordering
        // difference between thread counts.
        let concat = |threads: usize| {
            let pool = Pool::new(threads);
            pool.parallel_reduce(
                26,
                3,
                |s, e| (s..e).map(|i| (b'a' + i as u8) as char).collect::<String>(),
                |a, b| format!("({a}{b})"),
            )
            .unwrap()
        };
        let one = concat(1);
        assert_eq!(one, concat(2));
        assert_eq!(one, concat(5));
        assert!(one.contains("(abc"), "leftmost chunk first: {one}");
    }

    #[test]
    fn nested_parallel_for_completes() {
        // Nesting through the global pool is `tests/global_pool.rs`.
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        pool.parallel_for(8, 1, |_, _| {
            pool.parallel_for(4, 1, |s, e| {
                total.fetch_add((e - s) as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = Pool::new(4);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(10, 1, |s, _| {
                if s == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "chunk 5 exploded");
        // The pool must still be usable afterwards.
        let n = AtomicUsize::new(0);
        pool.parallel_for(4, 1, |s, e| {
            n.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(5);
        let n = AtomicUsize::new(0);
        pool.parallel_for(100, 1, |s, e| {
            n.fetch_add(e - s, Ordering::Relaxed);
        });
        drop(pool); // must not hang
        assert_eq!(n.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn requested_threads_are_capped_at_the_cores() {
        let cores = available_cores();
        assert!(cores >= 1);
        assert_eq!(clamp_to_cores(1, "test"), 1);
        assert_eq!(clamp_to_cores(cores, "test"), cores);
        assert_eq!(clamp_to_cores(cores + 1, "test"), cores);
        assert_eq!(clamp_to_cores(usize::MAX, "test"), cores);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        pool.parallel_for(10, 2, |_, _| {
            assert_eq!(std::thread::current().id(), tid);
        });
    }
}
