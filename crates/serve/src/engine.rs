//! The inference engine: a frozen model behind a micro-batching job queue.
//!
//! The request-independent tensors — [`RecModel::precompute_frozen`]'s
//! output: for SSDRec the stage-1 relation-encoded tables, the transposed
//! tied-weight scorer and the pad mask — are computed **once per engine** on
//! a scratch graph that is dropped before any worker starts. Each worker
//! thread owns an inference-mode [`Graph`]
//! (no tape, no gradient state) with the parameters and those tensors bound
//! as constants below a [`Graph::mark`]. Per request the worker appends only
//! the activation nodes and truncates back to the mark afterwards, so
//! steady-state serving allocates no parameter copies and no autograd
//! bookkeeping, and no worker holds a copy of stage 1's adjacency operators.
//!
//! Coalescing is queue-driven ([`JobQueue::take`]): a worker takes the
//! oldest queued job and every queued job of the same history length, so
//! one take is one forward pass and other lengths stay queued for the next
//! free worker. It lingers only on a batch that is already coalescing, and
//! it waits on a condition variable, so the queue stays open to the other
//! workers while it does. A lone request goes straight to its forward pass.
//!
//! Scores are **bit-identical** to the offline
//! [`RecModel::recommend`] path: a worker makes the same two calls as the
//! trainer's eval pass, [`RecModel::precompute_frozen`] once and
//! [`RecModel::eval_scores_frozen`] per batch, so the same kernels run in
//! the same order; batching is over equal-length rows only (the
//! workspace's `Batch` invariant), and every kernel is row-independent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ssdrec_core::SsdRec;
use ssdrec_data::Batch;
use ssdrec_models::{RecModel, SeqRec};
use ssdrec_tensor::{Graph, Tensor, Var};

use crate::cache::SessionCache;
use crate::stats::ServerStats;

/// Why a recommendation request failed, mapped to an HTTP status by the
/// front-end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecError {
    /// The request itself is invalid (empty history, out-of-range IDs…).
    BadRequest(String),
    /// The engine shed the request because its queue is over the bound —
    /// retryable, served as `503 Service Unavailable`.
    Overloaded,
    /// The engine failed while processing an otherwise valid request
    /// (worker died mid-batch, engine shut down).
    Internal(String),
}

impl RecError {
    /// The HTTP status this error maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            RecError::BadRequest(_) => 400,
            RecError::Overloaded => 503,
            RecError::Internal(_) => 500,
        }
    }
}

impl std::fmt::Display for RecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecError::BadRequest(m) => write!(f, "{m}"),
            RecError::Overloaded => write!(f, "overloaded: request queue is full, retry later"),
            RecError::Internal(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RecError {}

/// A servable model: a [`RecModel`] behind its frozen forward, plus the
/// catalogue bounds request validation reads. Built from an [`SsdRec`] or,
/// for `--baseline` checkpoints, a bare-backbone [`SeqRec`].
pub struct InferenceModel {
    model: Box<dyn RecModel + Send + Sync>,
    num_items: usize,
    num_users: Option<usize>,
}

impl From<SsdRec> for InferenceModel {
    fn from(m: SsdRec) -> Self {
        InferenceModel {
            num_items: m.num_items(),
            num_users: Some(m.num_users()),
            model: Box::new(m),
        }
    }
}

impl From<SeqRec> for InferenceModel {
    fn from(m: SeqRec) -> Self {
        InferenceModel {
            num_items: m.num_items(),
            num_users: None,
            model: Box::new(m),
        }
    }
}

impl InferenceModel {
    /// Catalogue size (valid item IDs are `1..=num_items`).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of valid user IDs, when the model embeds users (`None` means
    /// any user ID is acceptable — bare backbones ignore the user).
    pub fn num_users(&self) -> Option<usize> {
        self.num_users
    }

    /// Display name of the underlying model.
    pub fn model_name(&self) -> String {
        self.model.model_name()
    }

    /// Run [`RecModel::precompute_frozen`] once, on a scratch graph dropped
    /// on return — and with it, for SSDRec, every intermediate of stage 1's
    /// message passing. What is kept are the values every worker binds as
    /// constants.
    fn freeze(&self) -> Vec<Tensor> {
        let mut scratch = Graph::inference_with_capacity(Graph::DEFAULT_CAPACITY);
        let bind = self.model.store().bind_all(&mut scratch);
        let frozen = self.model.precompute_frozen(&mut scratch, &bind);
        frozen.iter().map(|&v| scratch.value(v).clone()).collect()
    }
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads, each with its own frozen graph (≥ 1).
    pub workers: usize,
    /// Most requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Upper bound, from the first request's dequeue, on how long a worker
    /// waits for more requests of its batch's history length to join a
    /// batch that is already coalescing (≥ 2 requests of that length). A
    /// lone request never waits; what is already queued joins without a
    /// timer; other lengths stay queued for the other workers meanwhile.
    pub linger: Duration,
    /// Session-cache capacity in users (0 disables caching).
    pub cache_capacity: usize,
    /// Histories longer than this are truncated to their most recent
    /// `max_len` items (must match the trained model's `max_len`).
    pub max_len: usize,
    /// Load-shedding bound: requests arriving while this many are already
    /// queued for the workers are rejected with [`RecError::Overloaded`]
    /// (HTTP 503) instead of growing the queue without limit.
    pub max_queue: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_batch: 32,
            linger: Duration::from_millis(2),
            cache_capacity: 1024,
            max_len: 50,
            max_queue: 1024,
        }
    }
}

/// One answered recommendation request.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// The requesting user.
    pub user: usize,
    /// Requested list length.
    pub k: usize,
    /// `(item, score)` pairs, best first, pad item excluded, ties broken
    /// to the lower item ID (the paper's pessimistic full-ranking rule).
    pub items: Vec<(usize, f32)>,
    /// Size of the forward-pass batch this request was coalesced into
    /// (1 when it rode alone; cache hits report the batch size of the
    /// request that originally computed the entry).
    pub batch_size: usize,
}

struct Job {
    user: usize,
    seq: Vec<usize>,
    k: usize,
    resp: Sender<Arc<Recommendation>>,
}

/// The serving engine: validation + session cache in front of the worker
/// pool. Shared across connection threads behind an `Arc`.
pub struct Engine {
    model: Arc<InferenceModel>,
    cfg: EngineConfig,
    queue: Arc<JobQueue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    cache: Mutex<SessionCache>,
    stats: Arc<ServerStats>,
    /// Busy time in µs, one counter per worker thread (a respawned worker
    /// keeps its counter).
    worker_busy_us: Vec<Arc<AtomicU64>>,
}

impl Engine {
    /// Spin up the worker pool around a frozen model.
    pub fn new(model: InferenceModel, cfg: EngineConfig, stats: Arc<ServerStats>) -> Engine {
        let engine = Engine::build(model, cfg, stats);
        engine.publish_workers();
        engine
    }

    /// [`Engine::new`] without exporting the workers' busy counters: a hot
    /// swap builds the replacement beside the serving engine and calls
    /// [`Engine::publish_workers`] only at the commit.
    pub(crate) fn build(
        model: InferenceModel,
        cfg: EngineConfig,
        stats: Arc<ServerStats>,
    ) -> Engine {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.max_batch >= 1, "max_batch must be ≥ 1");
        assert!(cfg.max_len >= 1, "max_len must be ≥ 1");
        assert!(cfg.max_queue >= 1, "max_queue must be ≥ 1");
        let model = Arc::new(model);
        // Stage 1 once per engine: the scratch graph inside `freeze` is gone
        // before any worker exists.
        let frozen: Arc<[Tensor]> = model.freeze().into();
        let queue = Arc::new(JobQueue::new(cfg.max_queue));
        // Shared graph high-water mark: every worker publishes the largest
        // tape it has seen, and later workers (or restarts) pre-size their
        // node Vec from it instead of the hard-coded default.
        let hwm = Arc::new(AtomicUsize::new(Graph::DEFAULT_CAPACITY));
        let worker_busy_us: Vec<_> = (0..cfg.workers)
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let workers = worker_busy_us
            .iter()
            .enumerate()
            .map(|(i, busy)| {
                let model = Arc::clone(&model);
                let frozen = Arc::clone(&frozen);
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let busy = Arc::clone(busy);
                let hwm = Arc::clone(&hwm);
                let (max_batch, linger) = (cfg.max_batch, cfg.linger);
                std::thread::Builder::new()
                    .name(format!("ssdrec-worker-{i}"))
                    .spawn(move || {
                        // Panic containment: a panicking forward pass (or an
                        // injected `engine.batch` panic fault) kills only the
                        // current worker_loop invocation. The outer loop
                        // respawns it — rebinding the frozen tables at the
                        // top of worker_loop — without dropping the shared
                        // queue, so already-enqueued jobs still get served.
                        loop {
                            let ran =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker_loop(
                                        &model, &frozen, &queue, &stats, &busy, &hwm, max_batch,
                                        linger,
                                    )
                                }));
                            match ran {
                                Ok(()) => return, // queue closed and empty: shutdown
                                Err(_) => {
                                    stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Engine {
            model,
            cache: Mutex::new(SessionCache::new(cfg.cache_capacity)),
            cfg,
            queue,
            workers: Mutex::new(workers),
            stats,
            worker_busy_us,
        }
    }

    /// Make this engine's workers the ones the `/metrics` `workers` section
    /// describes, replacing whichever engine's were exported before.
    pub(crate) fn publish_workers(&self) {
        self.stats.set_workers(self.worker_busy_us.clone());
    }

    /// The shared stats the engine records into.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The shared stats, cloned out — a hot swap hands the same instance
    /// to the replacement engine so counters survive the swap.
    pub fn stats_arc(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Live entry count of the session cache (a hot swap reports this as
    /// the number of sessions invalidated).
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// The model being served.
    pub fn model(&self) -> &InferenceModel {
        &self.model
    }

    fn validate(&self, user: usize, seq: &[usize], k: usize) -> Result<(), String> {
        if seq.is_empty() {
            return Err("seq must be non-empty".into());
        }
        if k == 0 {
            return Err("k must be ≥ 1".into());
        }
        let v = self.model.num_items();
        if let Some(&bad) = seq.iter().find(|&&i| i == 0 || i > v) {
            return Err(format!("item {bad} out of range 1..={v}"));
        }
        if let Some(u) = self.model.num_users() {
            if user >= u {
                return Err(format!("user {user} out of range 0..{u}"));
            }
        }
        Ok(())
    }

    /// Jobs currently enqueued for the workers (load-shedding signal).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Answer one request: validate, consult the session cache, otherwise
    /// enqueue for a batched forward pass and wait for the result. Sheds
    /// with [`RecError::Overloaded`] when the queue is over
    /// [`EngineConfig::max_queue`].
    pub fn recommend(
        &self,
        user: usize,
        seq: &[usize],
        k: usize,
    ) -> Result<Arc<Recommendation>, RecError> {
        let start = Instant::now();
        if let Err(e) = self.validate(user, seq, k) {
            self.stats.errors_total.fetch_add(1, Ordering::Relaxed);
            return Err(RecError::BadRequest(e));
        }
        // Serve from the most recent max_len items, the same window the
        // model was trained on.
        let seq = &seq[seq.len().saturating_sub(self.cfg.max_len)..];

        if let Some(hit) = lock(&self.cache).get(user, seq, k) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.stats
                .record_request(start.elapsed().as_micros() as u64);
            return Ok(hit);
        }

        let (resp_tx, resp_rx) = mpsc::channel();
        let pushed = self.queue.push(Job {
            user,
            seq: seq.to_vec(),
            k,
            resp: resp_tx,
        });
        if let Err(e) = pushed {
            if e == RecError::Overloaded {
                self.stats.shed_total.fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }
        let rec = resp_rx
            .recv()
            .map_err(|_| RecError::Internal("worker failed while scoring the request".into()))?;

        lock(&self.cache).put(user, seq.to_vec(), k, Arc::clone(&rec));
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.stats
            .record_request(start.elapsed().as_micros() as u64);
        Ok(rec)
    }

    /// Stop accepting work and join every worker once it has answered what
    /// was already queued. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lock a mutex, recovering the data from a poisoned lock (a panicked
/// worker must not take the whole server down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine's job queue: one FIFO under one lock, bounded by `max_queue`,
/// open until [`JobQueue::close`]. Workers wait on condition variables, so a
/// worker that lingers does not hold the queue.
struct JobQueue {
    state: Mutex<QueueState>,
    max_queue: usize,
    /// Workers with an empty batch wait here; a push wakes one of them.
    work: Condvar,
    /// Lingering workers wait here; a push wakes all of them, since only a
    /// lingerer of the new job's length can use it.
    more: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

impl JobQueue {
    fn new(max_queue: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            max_queue,
            work: Condvar::new(),
            more: Condvar::new(),
        }
    }

    /// Jobs queued and not yet taken by a worker.
    fn len(&self) -> usize {
        lock(&self.state).jobs.len()
    }

    /// Enqueue a job, or shed it with [`RecError::Overloaded`] when
    /// `max_queue` jobs are already waiting. A 503 is retryable; an
    /// unbounded queue is a latency collapse and eventually an OOM.
    fn push(&self, job: Job) -> Result<(), RecError> {
        let mut q = lock(&self.state);
        if !q.open {
            return Err(RecError::Internal("engine is shut down".into()));
        }
        if q.jobs.len() >= self.max_queue {
            return Err(RecError::Overloaded);
        }
        q.jobs.push_back(job);
        drop(q);
        // Both: a lingerer of another length must not swallow the wake-up
        // an idle worker needs.
        self.work.notify_one();
        self.more.notify_all();
        Ok(())
    }

    /// Refuse new jobs and wake every worker. Jobs already queued are still
    /// handed out; a take returns empty once none is left.
    fn close(&self) {
        lock(&self.state).open = false;
        self.work.notify_all();
        self.more.notify_all();
    }

    /// Block for the oldest job and take every queued job of its history
    /// length, up to `max_batch`; other lengths stay queued. Only a batch
    /// that holds ≥ 2 jobs — there is concurrency to extend — then waits, up
    /// to `linger` from the first dequeue, for arrivals of its length. A
    /// lone request goes straight to its forward pass and a backlog
    /// coalesces to `max_batch` with no timer at all. Empty result means the
    /// queue is closed and drained.
    fn take(&self, max_batch: usize, linger: Duration) -> Vec<Job> {
        let mut q = lock(&self.state);
        let first = loop {
            if let Some(job) = q.jobs.pop_front() {
                break job;
            }
            if !q.open {
                return Vec::new();
            }
            q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
        };
        let deadline = Instant::now() + linger;
        let len = first.seq.len();
        let mut batch = vec![first];
        take_len(&mut q.jobs, len, &mut batch, max_batch);
        while batch.len() >= 2 && batch.len() < max_batch && q.open {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            q = self
                .more
                .wait_timeout(q, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            take_len(&mut q.jobs, len, &mut batch, max_batch);
        }
        batch
    }
}

/// Move the queued jobs of history length `len` into `batch`, oldest first,
/// until it holds `max_batch`.
fn take_len(jobs: &mut VecDeque<Job>, len: usize, batch: &mut Vec<Job>, max_batch: usize) {
    let mut i = 0;
    while i < jobs.len() && batch.len() < max_batch {
        if jobs[i].seq.len() == len {
            batch.extend(jobs.remove(i));
        } else {
            i += 1;
        }
    }
}

/// Bind an engine's frozen values into a worker's graph as constants.
fn bind_frozen(g: &mut Graph, frozen: &[Tensor]) -> Vec<Var> {
    frozen.iter().map(|t| g.constant(t.clone())).collect()
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    model: &InferenceModel,
    frozen: &[Tensor],
    queue: &JobQueue,
    stats: &ServerStats,
    busy_us: &AtomicU64,
    hwm: &AtomicUsize,
    max_batch: usize,
    linger: Duration,
) {
    let width = model.num_items() + 1;
    let model = &*model.model;
    let mut g = Graph::inference_with_capacity(hwm.load(Ordering::Relaxed));
    let bind = model.store().bind_all(&mut g);
    let frozen = bind_frozen(&mut g, frozen);
    let mark = g.mark();

    loop {
        // One take is one length (Batch is a dense B×T block with no
        // padding), so one forward pass.
        let jobs = queue.take(max_batch, linger);
        if jobs.is_empty() {
            return; // engine shut down
        }
        // Chaos hook: `engine.batch:error:N` drops this round's jobs (their
        // responders close, callers see an internal error);
        // `engine.batch:panic:N` unwinds through the respawn loop above.
        if ssdrec_base::faults::point("engine.batch").is_err() {
            continue;
        }
        // Busy time starts once there is work; idle blocking in take is
        // excluded from the /metrics busy fraction.
        let busy_start = Instant::now();
        let seq_len = jobs[0].seq.len();
        let batch = Batch {
            users: jobs.iter().map(|j| j.user).collect(),
            items: jobs.iter().flat_map(|j| j.seq.iter().copied()).collect(),
            seq_len,
            // Same placeholder target the offline recommend path uses;
            // targets never enter the eval forward.
            targets: jobs.iter().map(|j| j.seq[seq_len - 1]).collect(),
            noise: None,
        };
        // Full-rank score row + bounded-heap top-K.
        let scores = model.eval_scores_frozen(&mut g, &bind, &batch, &frozen);
        let values = g.value(scores);
        for (row, job) in jobs.iter().enumerate() {
            let row_scores = &values.data()[row * width..(row + 1) * width];
            let items = ssdrec_metrics::par_top_k(row_scores, job.k);
            let _ = job.resp.send(Arc::new(Recommendation {
                user: job.user,
                k: job.k,
                items,
                batch_size: jobs.len(),
            }));
        }
        stats.record_batch(jobs.len() as u64);
        // Drop this request's activation nodes; parameters and the frozen
        // tables below the mark stay bound.
        g.truncate(mark);
        hwm.fetch_max(g.high_water(), Ordering::Relaxed);
        busy_us.fetch_add(busy_start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_models::BackboneKind;
    use std::sync::mpsc::Receiver;

    fn tiny_engine(cfg: EngineConfig) -> (Engine, SeqRec) {
        // Two identically-seeded models: one served, one for offline
        // reference scoring.
        let model = SeqRec::new(BackboneKind::SasRec, 20, 8, 10, 42);
        let reference = SeqRec::new(BackboneKind::SasRec, 20, 8, 10, 42);
        let stats = Arc::new(ServerStats::new());
        (Engine::new(model.into(), cfg, stats), reference)
    }

    #[test]
    fn served_scores_match_offline_bitwise() {
        let (engine, reference) = tiny_engine(EngineConfig {
            max_len: 10,
            ..EngineConfig::default()
        });
        for seq in [vec![1, 2, 3], vec![5], vec![7, 7, 7, 7]] {
            let served = engine.recommend(0, &seq, 5).expect("serve");
            let offline = reference.recommend(0, &seq, 5);
            assert_eq!(served.items.len(), offline.len());
            for (s, o) in served.items.iter().zip(&offline) {
                assert_eq!(s.0, o.0, "item mismatch for {seq:?}");
                assert_eq!(s.1.to_bits(), o.1.to_bits(), "score bits for {seq:?}");
            }
        }
        engine.shutdown();
    }

    #[test]
    fn long_histories_truncate_to_max_len() {
        let (engine, reference) = tiny_engine(EngineConfig {
            max_len: 4,
            ..EngineConfig::default()
        });
        let long: Vec<usize> = (1..=12).map(|i| (i % 20) + 1).collect();
        let served = engine.recommend(0, &long, 3).expect("serve");
        let offline = reference.recommend(0, &long[long.len() - 4..], 3);
        assert_eq!(
            served.items.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            offline.iter().map(|&(i, _)| i).collect::<Vec<_>>()
        );
        engine.shutdown();
    }

    #[test]
    fn cache_hits_return_the_same_result() {
        let (engine, _) = tiny_engine(EngineConfig::default());
        let a = engine.recommend(3, &[1, 2], 4).expect("first");
        let b = engine.recommend(3, &[1, 2], 4).expect("second");
        assert!(Arc::ptr_eq(&a, &b), "second call must be the cached Arc");
        assert_eq!(engine.stats().cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(engine.stats().cache_misses.load(Ordering::Relaxed), 1);
        // A changed history misses.
        let c = engine.recommend(3, &[1, 2, 3], 4).expect("third");
        assert!(!Arc::ptr_eq(&a, &c));
        engine.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_and_counted() {
        let (engine, _) = tiny_engine(EngineConfig::default());
        assert!(engine.recommend(0, &[], 5).is_err(), "empty seq");
        assert!(engine.recommend(0, &[1], 0).is_err(), "k = 0");
        assert!(engine.recommend(0, &[0], 5).is_err(), "pad item");
        assert!(engine.recommend(0, &[21], 5).is_err(), "item too large");
        assert_eq!(engine.stats().errors_total.load(Ordering::Relaxed), 4);
        assert_eq!(engine.stats().requests_total.load(Ordering::Relaxed), 0);
        engine.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_work() {
        let (engine, _) = tiny_engine(EngineConfig::default());
        engine.shutdown();
        engine.shutdown();
        assert!(engine.recommend(0, &[1], 3).is_err());
    }

    /// A queue pre-filled with `n` jobs of length 3 (what a backlog looks
    /// like to a worker), shared so another thread can add more.
    fn backlog(n: usize) -> Arc<JobQueue> {
        let queue = Arc::new(JobQueue::new(usize::MAX));
        for user in 0..n {
            queue.push(job(user, vec![1, 2, 3]).0).expect("queue open");
        }
        queue
    }

    fn job(user: usize, seq: Vec<usize>) -> (Job, Receiver<Arc<Recommendation>>) {
        let (resp, answer) = mpsc::channel();
        let job = Job {
            user,
            seq,
            k: 5,
            resp,
        };
        (job, answer)
    }

    /// Long enough that a wait the policy should not make is unmistakable.
    const LONG_LINGER: Duration = Duration::from_millis(500);

    #[test]
    fn a_lone_job_is_not_lingered_on() {
        let queue = backlog(1);
        let t0 = Instant::now();
        let jobs = queue.take(32, LONG_LINGER);
        assert_eq!(jobs.len(), 1);
        assert!(t0.elapsed() < LONG_LINGER / 2, "waited {:?}", t0.elapsed());
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn a_backlog_coalesces_to_max_batch_without_a_timer() {
        // Exactly max_batch queued: all of it in one call, no wait.
        let queue = backlog(8);
        let t0 = Instant::now();
        let jobs = queue.take(8, LONG_LINGER);
        assert_eq!(jobs.len(), 8);
        assert!(t0.elapsed() < LONG_LINGER / 2, "waited {:?}", t0.elapsed());
        assert_eq!(queue.len(), 0);

        // More than max_batch: exactly max_batch, in arrival order, one
        // queue-depth slot released per job taken; the rest stay queued.
        let queue = backlog(11);
        let t0 = Instant::now();
        let jobs = queue.take(8, LONG_LINGER);
        assert_eq!(
            jobs.iter().map(|j| j.user).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert!(t0.elapsed() < LONG_LINGER / 2, "waited {:?}", t0.elapsed());
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.take(8, Duration::ZERO).len(), 3);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn a_coalescing_batch_lingers_for_more() {
        // Fewer than max_batch but ≥ 2: everything queued is taken, then the
        // batch waits out the linger for company that never comes.
        let linger = Duration::from_millis(30);
        let queue = backlog(3);
        let t0 = Instant::now();
        assert_eq!(queue.take(8, linger).len(), 3);
        assert!(t0.elapsed() >= linger, "returned after {:?}", t0.elapsed());

        // Two queued, a third of their length arriving 10 ms later joins
        // them — and fills the batch, which ends the wait long before the
        // deadline.
        let queue = backlog(2);
        let tx = Arc::clone(&queue);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.push(job(2, vec![4, 5, 6]).0).expect("queue open");
        });
        let t0 = Instant::now();
        let jobs = queue.take(3, LONG_LINGER);
        assert_eq!(jobs.len(), 3, "the late job must join the batch");
        assert!(t0.elapsed() < LONG_LINGER / 2, "waited {:?}", t0.elapsed());
        late.join().expect("sender thread");
    }

    #[test]
    fn a_closed_queue_drains_to_nothing() {
        let queue = backlog(0);
        queue.close();
        assert!(queue.take(8, LONG_LINGER).is_empty());
    }

    #[test]
    fn a_take_holds_one_length_and_leaves_the_rest_queued() {
        // Two lengths queued: the oldest job rides alone, at once — nothing
        // queued can join it, so there is no batch to linger on — and the
        // other length stays for the next take.
        let queue = backlog(0);
        queue.push(job(0, vec![1, 2, 3]).0).expect("queue open");
        queue.push(job(1, vec![4, 5]).0).expect("queue open");
        let t0 = Instant::now();
        let jobs = queue.take(32, LONG_LINGER);
        assert_eq!(jobs.iter().map(|j| j.user).collect::<Vec<_>>(), [0]);
        assert!(t0.elapsed() < LONG_LINGER / 2, "waited {:?}", t0.elapsed());
        assert_eq!(queue.len(), 1);

        // Lengths interleaved: the take gathers the oldest job's length from
        // anywhere in the queue, oldest first, and leaves the rest in order.
        for (user, seq) in [(2, vec![1]), (3, vec![2, 3]), (4, vec![4]), (5, vec![5])] {
            queue.push(job(user, seq).0).expect("queue open");
        }
        let jobs = queue.take(32, Duration::ZERO);
        assert_eq!(jobs.iter().map(|j| j.user).collect::<Vec<_>>(), [1, 3]);
        let jobs = queue.take(32, Duration::ZERO);
        assert_eq!(jobs.iter().map(|j| j.user).collect::<Vec<_>>(), [2, 4, 5]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn a_lingering_worker_leaves_the_queue_to_the_others() {
        // Worker A lingers on a coalescing batch of length 3. A job of
        // another length pushed meanwhile must reach worker B, waiting idle,
        // long before A's deadline: A neither holds the queue nor swallows
        // the wake-up.
        let queue = backlog(2);
        let a_queue = Arc::clone(&queue);
        let t0 = Instant::now();
        let a = std::thread::spawn(move || {
            let t0 = Instant::now();
            (a_queue.take(8, LONG_LINGER), t0.elapsed())
        });
        while queue.len() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (b_queue, (b_tx, b_rx)) = (Arc::clone(&queue), mpsc::channel());
        std::thread::spawn(move || b_tx.send(b_queue.take(8, LONG_LINGER)));
        // Time for B to find the queue empty and wait.
        std::thread::sleep(Duration::from_millis(20));
        queue.push(job(2, vec![4, 5]).0).expect("queue open");
        let b_jobs = b_rx.recv_timeout(LONG_LINGER / 2);
        let waited = t0.elapsed();
        let (a_jobs, a_waited) = a.join().expect("worker A");
        queue.close(); // releases B if the push never reached it
        let b_jobs = b_jobs.expect("B got no job while A lingered");
        assert!(
            waited < LONG_LINGER / 2,
            "B answered {waited:?} after A began"
        );
        assert_eq!(b_jobs.iter().map(|j| j.user).collect::<Vec<_>>(), [2]);
        assert_eq!(a_jobs.iter().map(|j| j.user).collect::<Vec<_>>(), [0, 1]);
        assert!(a_waited >= LONG_LINGER, "A returned after {a_waited:?}");
    }

    #[test]
    fn a_closed_queue_still_hands_out_what_was_queued() {
        // Jobs queued before the close are answered, as a drained channel
        // would answer them: no linger (nothing more can arrive), one length
        // per take, then empty. Pushes after the close are refused.
        let queue = backlog(2);
        queue.push(job(2, vec![4, 5]).0).expect("queue open");
        queue.close();
        assert!(matches!(
            queue.push(job(3, vec![1, 2, 3]).0),
            Err(RecError::Internal(_))
        ));
        let t0 = Instant::now();
        assert_eq!(queue.take(8, LONG_LINGER).len(), 2);
        assert!(t0.elapsed() < LONG_LINGER / 2, "waited {:?}", t0.elapsed());
        let jobs = queue.take(8, LONG_LINGER);
        assert_eq!(jobs.iter().map(|j| j.user).collect::<Vec<_>>(), [2]);
        assert!(queue.take(8, LONG_LINGER).is_empty());
        assert_eq!(queue.len(), 0);

        // Through the engine: a request after shutdown is an internal error.
        let (engine, _) = tiny_engine(EngineConfig::default());
        engine.shutdown();
        assert!(matches!(
            engine.recommend(0, &[1], 3),
            Err(RecError::Internal(_))
        ));
    }

    #[test]
    fn queued_requests_share_one_forward_pass_per_length() {
        // Coalescing forced, not inferred: the jobs are queued before the
        // worker is released. Four of length 3 and two of length 2 must run
        // as exactly two forwards, each row bit-identical to offline scoring.
        let model: InferenceModel = SeqRec::new(BackboneKind::SasRec, 20, 8, 10, 42).into();
        let reference = SeqRec::new(BackboneKind::SasRec, 20, 8, 10, 42);
        let frozen = model.freeze();
        let stats = ServerStats::new();
        let queue = JobQueue::new(usize::MAX);
        let mut answers = Vec::new();
        for user in 0..6 {
            let seq = if user < 4 {
                vec![user + 1, 7, 9]
            } else {
                vec![user + 1, 3]
            };
            let (job, answer) = job(user, seq.clone());
            queue.push(job).expect("queue open");
            answers.push((seq, answer));
        }
        queue.close(); // the worker returns once the backlog is served
        let busy = AtomicU64::new(0);
        let hwm = AtomicUsize::new(Graph::DEFAULT_CAPACITY);
        worker_loop(
            &model,
            &frozen,
            &queue,
            &stats,
            &busy,
            &hwm,
            32,
            Duration::ZERO,
        );
        for (seq, answer) in answers {
            let rec = answer.recv().expect("every queued job is answered");
            assert_eq!(rec.batch_size, if seq.len() == 3 { 4 } else { 2 });
            let offline = reference.recommend(0, &seq, 5);
            assert_eq!(rec.items.len(), offline.len());
            for (s, o) in rec.items.iter().zip(&offline) {
                assert_eq!((s.0, s.1.to_bits()), (o.0, o.1.to_bits()), "{seq:?}");
            }
        }
        assert_eq!(stats.batches_total.load(Ordering::Relaxed), 2);
        assert_eq!(stats.batched_requests_total.load(Ordering::Relaxed), 6);
        assert_eq!(stats.max_batch.load(Ordering::Relaxed), 4);
        assert_eq!(queue.len(), 0);
    }

    /// `(shape, bits)` of every frozen node, read off `g`.
    fn frozen_bits(g: &Graph, frozen: &[Var]) -> Vec<(Vec<usize>, Vec<u32>)> {
        frozen
            .iter()
            .map(|&v| {
                let t = g.value(v);
                (
                    t.shape().to_vec(),
                    t.data().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn workers_bind_the_bits_a_fresh_precompute_produces() {
        let raw = ssdrec_data::SyntheticConfig::beauty()
            .scaled(0.03)
            .with_seed(5)
            .generate();
        let (dataset, _) = ssdrec_data::prepare(&raw, 12, 3);
        let graph = ssdrec_graph::build_graph(&dataset, &ssdrec_graph::GraphConfig::default());
        let ssd = SsdRec::new(
            &graph,
            ssdrec_core::SsdRecConfig {
                dim: 8,
                max_len: 12,
                seed: 11,
                ..Default::default()
            },
        );
        let seq = SeqRec::new(BackboneKind::SasRec, 20, 8, 10, 42);
        for (model, nodes) in [
            (InferenceModel::from(ssd), 4),
            (InferenceModel::from(seq), 2),
        ] {
            // What each worker used to do: stage 1 on its own graph.
            let mut fresh = Graph::inference();
            let bind = model.model.store().bind_all(&mut fresh);
            let want = model.model.precompute_frozen(&mut fresh, &bind);
            assert_eq!(want.len(), nodes, "{}", model.model_name());
            let want = frozen_bits(&fresh, &want);
            // What every worker (and every panic-respawn) does now.
            let shared = model.freeze();
            for _worker in 0..2 {
                let mut g = Graph::inference();
                let bound = bind_frozen(&mut g, &shared);
                assert_eq!(frozen_bits(&g, &bound), want, "{}", model.model_name());
            }
        }
    }

    #[test]
    fn requests_record_latency() {
        let (engine, _) = tiny_engine(EngineConfig::default());
        engine.recommend(1, &[4, 5, 6], 2).expect("serve");
        assert_eq!(engine.stats().latency.count(), 1);
        assert!(engine.stats().latency.quantile_ms(0.5) > 0.0);
        engine.shutdown();
    }
}
