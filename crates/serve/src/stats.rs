//! Serving telemetry: lock-free QPS counters and a log-scale latency
//! histogram with percentile estimation — everything the `/metrics`
//! endpoint exposes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Geometric bucket-boundary ratio ≈ ×1.3 per bucket, from 1 µs up to
/// about a minute — resolution well under one histogram bucket of error at
/// every latency scale this server can plausibly produce.
fn boundaries() -> Vec<u64> {
    let mut edges = vec![1u64];
    while *edges.last().expect("non-empty") < 60_000_000 {
        let last = *edges.last().expect("non-empty");
        edges.push((last + (last * 3).div_ceil(10)).max(last + 1));
    }
    edges
}

/// A concurrent latency histogram over microsecond buckets.
pub struct LatencyHistogram {
    edges: Vec<u64>,
    counts: Vec<AtomicU64>,
    total_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let edges = boundaries();
        let counts = (0..edges.len() + 1).map(|_| AtomicU64::new(0)).collect();
        LatencyHistogram {
            edges,
            counts,
            total_us: AtomicU64::new(0),
        }
    }

    /// Record one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = self.edges.partition_point(|&e| e < us.max(1));
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.total_us.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in milliseconds, estimated as the
    /// upper edge of the bucket holding the quantile observation. Returns
    /// 0 when the histogram is empty; any recorded observation yields a
    /// strictly positive estimate (the smallest bucket edge is 1 µs).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                let edge = self
                    .edges
                    .get(i)
                    .unwrap_or(self.edges.last().expect("non-empty"));
                return *edge as f64 / 1000.0;
            }
        }
        unreachable!("quantile target within total count")
    }
}

/// All counters the serving subsystem maintains.
pub struct ServerStats {
    started: Instant,
    /// End-to-end `/recommend` latency (includes queueing + batching).
    pub latency: LatencyHistogram,
    /// Total recommendation requests answered (hits + misses).
    pub requests_total: AtomicU64,
    /// Requests answered from the per-user session cache.
    pub cache_hits: AtomicU64,
    /// Requests that went through the inference engine.
    pub cache_misses: AtomicU64,
    /// Batched forward passes executed.
    pub batches_total: AtomicU64,
    /// Requests served through those batches (≥ batches_total when
    /// micro-batching coalesces concurrent requests).
    pub batched_requests_total: AtomicU64,
    /// Largest single forward-pass batch observed.
    pub max_batch: AtomicU64,
    /// Malformed or rejected requests.
    pub errors_total: AtomicU64,
    /// Worker threads that panicked and were respawned (the queue and the
    /// other requests survive; see the engine's respawn loop).
    pub worker_panics: AtomicU64,
    /// Requests shed with `503` because the worker queue was over
    /// `max_queue`.
    pub shed_total: AtomicU64,
    /// Connection-level I/O failures (read/write faults or timeouts) the
    /// server absorbed without dying.
    pub io_faults: AtomicU64,
    /// Version of the model currently serving (0 until a versioned
    /// checkpoint is loaded; bumped by every successful hot swap).
    pub model_version: AtomicU64,
    /// Successful hot swaps since start.
    pub swap_total: AtomicU64,
    /// Hot swaps that failed (load/build error or panic); the previous
    /// model kept serving.
    pub swap_failed_total: AtomicU64,
    /// Wall-clock µs of the most recent successful swap (load + build +
    /// commit).
    pub last_swap_us: AtomicU64,
    /// Session-cache entries invalidated by swaps (the whole cache is
    /// discarded with the old engine on every swap).
    pub sessions_invalidated_total: AtomicU64,
    /// Per-worker busy time in µs of the engine now serving (see
    /// [`ServerStats::set_workers`]).
    worker_busy_us: Mutex<Vec<Arc<AtomicU64>>>,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh stats with the uptime clock starting now.
    pub fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            latency: LatencyHistogram::new(),
            requests_total: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            batches_total: AtomicU64::new(0),
            batched_requests_total: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            io_faults: AtomicU64::new(0),
            model_version: AtomicU64::new(0),
            swap_total: AtomicU64::new(0),
            swap_failed_total: AtomicU64::new(0),
            last_swap_us: AtomicU64::new(0),
            sessions_invalidated_total: AtomicU64::new(0),
            worker_busy_us: Mutex::new(Vec::new()),
        }
    }

    /// Export `busy_us` — one busy-time counter (µs) per worker thread of the
    /// engine now serving — as the `/metrics` `workers` section, replacing
    /// the previous engine's. An engine calls this when it starts serving: at
    /// construction, or at the commit of a hot swap, so a failed swap leaves
    /// the serving engine's counters exported.
    pub fn set_workers(&self, busy_us: Vec<Arc<AtomicU64>>) {
        *self
            .worker_busy_us
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = busy_us;
    }

    /// Currently served model version.
    pub fn model_version(&self) -> u64 {
        self.model_version.load(Ordering::SeqCst)
    }

    /// Pin the initial model version (engine startup, before any swap).
    pub fn set_model_version(&self, v: u64) {
        self.model_version.store(v, Ordering::SeqCst);
    }

    /// Record one successful hot swap to `version`.
    pub fn note_swap(&self, version: u64, elapsed_us: u64, sessions_invalidated: u64) {
        self.model_version.store(version, Ordering::SeqCst);
        self.swap_total.fetch_add(1, Ordering::SeqCst);
        self.last_swap_us.store(elapsed_us, Ordering::Relaxed);
        self.sessions_invalidated_total
            .fetch_add(sessions_invalidated, Ordering::Relaxed);
    }

    /// Record one completed request's end-to-end latency.
    pub fn record_request(&self, elapsed_us: u64) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.latency.record_us(elapsed_us);
    }

    /// Record one executed forward pass of `batch` coalesced requests.
    pub fn record_batch(&self, batch: u64) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.batched_requests_total
            .fetch_add(batch, Ordering::Relaxed);
        self.max_batch.fetch_max(batch, Ordering::Relaxed);
    }

    /// Uptime in seconds.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Requests per second since start.
    pub fn qps(&self) -> f64 {
        let up = self.uptime_secs();
        if up <= 0.0 {
            return 0.0;
        }
        self.requests_total.load(Ordering::Relaxed) as f64 / up
    }

    /// The `/metrics` JSON document.
    pub fn to_json(&self) -> String {
        use crate::json::f64_to_json;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        // Per-worker busy fraction of server uptime, in registration order.
        let uptime_us = (self.uptime_secs() * 1e6).max(1.0);
        let busy: Vec<String> = self
            .worker_busy_us
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|c| {
                let frac = (c.load(Ordering::Relaxed) as f64 / uptime_us).clamp(0.0, 1.0);
                f64_to_json(frac)
            })
            .collect();
        let workers = format!(
            "{{\"count\":{},\"busy_fraction\":[{}]}}",
            busy.len(),
            busy.join(",")
        );
        // Tensor-pool telemetry aggregated over every thread that touched
        // the pool (workers included): recycled-buffer hit/miss counts and
        // bytes served from recycled storage.
        let pool = ssdrec_tensor::pool::global_stats();
        let model = format!(
            concat!(
                "{{\"model_version\":{},\"swap_total\":{},\"swap_failed_total\":{},",
                "\"last_swap_ms\":{},\"sessions_invalidated\":{}}}"
            ),
            get(&self.model_version),
            get(&self.swap_total),
            get(&self.swap_failed_total),
            f64_to_json(get(&self.last_swap_us) as f64 / 1000.0),
            get(&self.sessions_invalidated_total),
        );
        format!(
            concat!(
                "{{\"uptime_secs\":{},\"requests_total\":{},\"qps\":{},",
                "\"backend\":\"{}\",",
                "\"model\":{},",
                "\"latency_ms\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{}}},",
                "\"batching\":{{\"batches_total\":{},\"batched_requests_total\":{},\"max_batch\":{}}},",
                "\"workers\":{},",
                "\"pool\":{{\"pool_hits\":{},\"pool_misses\":{},\"bytes_recycled\":{}}},",
                "\"faults\":{{\"worker_panics\":{},\"shed_total\":{},\"io_faults\":{},",
                "\"injected_total\":{}}},",
                "\"errors_total\":{}}}"
            ),
            f64_to_json(self.uptime_secs()),
            get(&self.requests_total),
            f64_to_json(self.qps()),
            ssdrec_tensor::backend_kind().name(),
            model,
            self.latency.count(),
            f64_to_json(self.latency.mean_ms()),
            f64_to_json(self.latency.quantile_ms(0.50)),
            f64_to_json(self.latency.quantile_ms(0.95)),
            f64_to_json(self.latency.quantile_ms(0.99)),
            get(&self.cache_hits),
            get(&self.cache_misses),
            get(&self.batches_total),
            get(&self.batched_requests_total),
            get(&self.max_batch),
            workers,
            pool.hits,
            pool.misses,
            pool.bytes_recycled,
            get(&self.worker_panics),
            get(&self.shed_total),
            get(&self.io_faults),
            ssdrec_faults::total_fired(),
            get(&self.errors_total),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn quantiles_are_ordered_and_positive() {
        let h = LatencyHistogram::new();
        for us in [5u64, 50, 500, 5_000, 50_000, 50, 60, 70] {
            h.record_us(us);
        }
        let (p50, p95, p99) = (h.quantile_ms(0.5), h.quantile_ms(0.95), h.quantile_ms(0.99));
        assert!(p50 > 0.0, "p50 {p50}");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p99 lands in the bucket containing 50ms (×1.3 resolution).
        assert!(p99 >= 50.0 && p99 <= 66.0, "p99 {p99}");
    }

    #[test]
    fn zero_latency_still_counts_as_nonzero_bucket() {
        let h = LatencyHistogram::new();
        h.record_us(0);
        assert!(h.quantile_ms(0.5) > 0.0);
    }

    #[test]
    fn stats_json_is_parseable() {
        let s = ServerStats::new();
        s.record_request(1_000);
        s.record_batch(3);
        s.cache_hits.fetch_add(1, Ordering::Relaxed);
        let j = crate::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(j.get("requests_total").unwrap().as_usize(), Some(1));
        assert!(
            j.get("latency_ms")
                .unwrap()
                .get("p50")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert_eq!(
            j.get("batching")
                .unwrap()
                .get("max_batch")
                .unwrap()
                .as_usize(),
            Some(3)
        );
        let pool = j.get("pool").expect("pool section");
        for field in ["pool_hits", "pool_misses", "bytes_recycled"] {
            assert!(
                pool.get(field).and_then(|v| v.as_usize()).is_some(),
                "missing pool field {field}"
            );
        }
        // The active kernel backend is surfaced so operators can see which
        // kernels a live server is running.
        let backend = j.get("backend").and_then(|v| v.as_str()).expect("backend");
        assert!(
            backend == "reference" || backend == "blocked",
            "unexpected backend {backend:?}"
        );
    }

    #[test]
    fn workers_section_reports_count_and_busy_fraction() {
        let s = ServerStats::new();
        let busy: Vec<_> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
        s.set_workers(busy.clone());
        busy[0].fetch_add(10, Ordering::Relaxed);
        let j = crate::json::parse(&s.to_json()).expect("valid JSON");
        let workers = j.get("workers").expect("workers section");
        assert_eq!(workers.get("count").unwrap().as_usize(), Some(2));
        let fracs = workers.get("busy_fraction").unwrap().as_arr().unwrap();
        assert_eq!(fracs.len(), 2);
        let f0 = fracs[0].as_f64().unwrap();
        let f1 = fracs[1].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&f0));
        assert_eq!(f1, 0.0);
    }

    #[test]
    fn faults_section_reports_recovery_counters() {
        let s = ServerStats::new();
        s.worker_panics.fetch_add(2, Ordering::Relaxed);
        s.shed_total.fetch_add(5, Ordering::Relaxed);
        s.io_faults.fetch_add(1, Ordering::Relaxed);
        let j = crate::json::parse(&s.to_json()).expect("valid JSON");
        let faults = j.get("faults").expect("faults section");
        assert_eq!(faults.get("worker_panics").unwrap().as_usize(), Some(2));
        assert_eq!(faults.get("shed_total").unwrap().as_usize(), Some(5));
        assert_eq!(faults.get("io_faults").unwrap().as_usize(), Some(1));
        assert!(faults.get("injected_total").unwrap().as_usize().is_some());
    }

    #[test]
    fn model_section_tracks_swaps() {
        let s = ServerStats::new();
        s.set_model_version(1);
        s.note_swap(2, 1_500, 7);
        let j = crate::json::parse(&s.to_json()).expect("valid JSON");
        let m = j.get("model").expect("model section");
        assert_eq!(m.get("model_version").unwrap().as_usize(), Some(2));
        assert_eq!(m.get("swap_total").unwrap().as_usize(), Some(1));
        assert_eq!(m.get("swap_failed_total").unwrap().as_usize(), Some(0));
        assert_eq!(m.get("sessions_invalidated").unwrap().as_usize(), Some(7));
        assert!((m.get("last_swap_ms").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn set_workers_replaces_the_worker_section() {
        let s = ServerStats::new();
        let engine = |workers| (0..workers).map(|_| Arc::new(AtomicU64::new(0))).collect();
        s.set_workers(engine(2));
        s.set_workers(engine(1));
        let j = crate::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(
            j.get("workers").unwrap().get("count").unwrap().as_usize(),
            Some(1)
        );
    }

    #[test]
    fn max_batch_tracks_maximum() {
        let s = ServerStats::new();
        s.record_batch(2);
        s.record_batch(7);
        s.record_batch(4);
        assert_eq!(s.max_batch.load(Ordering::Relaxed), 7);
    }
}
