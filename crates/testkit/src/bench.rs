//! A criterion-style bench timer with no external dependencies.
//!
//! Each benchmark auto-calibrates an iteration count so that one sample takes
//! a measurable slice of wall-clock time, runs a warm-up, then collects a
//! fixed number of samples and reports per-iteration min / median / p95 /
//! max. Results are printed as a table and written as JSON to
//! `target/ssdrec-bench/<harness>.json` so CI can diff runs.
//!
//! Usage inside a `[[bench]]` target with `harness = false`:
//!
//! ```no_run
//! use ssdrec_testkit::bench::Harness;
//!
//! fn main() {
//!     let mut h = Harness::new("kernels");
//!     let xs: Vec<f32> = (0..1024).map(|i| i as f32).collect();
//!     h.bench("sum_1024", || xs.iter().sum::<f32>());
//!     h.finish();
//! }
//! ```
//!
//! Environment knobs: `SSDREC_BENCH_SAMPLES` (default 20),
//! `SSDREC_BENCH_SAMPLE_MS` (target milliseconds per sample, default 10),
//! `SSDREC_BENCH_FAST=1` (1 sample, 1 iteration — used by CI to smoke-test
//! bench binaries without paying measurement time).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measurement configuration (normally read from the environment).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Samples collected per benchmark.
    pub samples: usize,
    /// Target wall-clock duration of one sample.
    pub sample_target: Duration,
    /// Warm-up duration before sampling.
    pub warmup: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let fast = std::env::var("SSDREC_BENCH_FAST")
            .map(|v| v == "1")
            .unwrap_or(false);
        if fast {
            return BenchConfig {
                samples: 1,
                sample_target: Duration::ZERO,
                warmup: Duration::ZERO,
            };
        }
        let samples = std::env::var("SSDREC_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(20);
        let sample_ms = std::env::var("SSDREC_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10u64);
        BenchConfig {
            samples: samples.max(1),
            sample_target: Duration::from_millis(sample_ms),
            warmup: Duration::from_millis(3 * sample_ms),
        }
    }
}

/// Per-iteration timing statistics, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Benchmark id.
    pub id: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of samples.
    pub samples: usize,
    /// Fastest sample (ns / iteration).
    pub min_ns: f64,
    /// Median sample (ns / iteration).
    pub median_ns: f64,
    /// 95th-percentile sample (ns / iteration).
    pub p95_ns: f64,
    /// Slowest sample (ns / iteration).
    pub max_ns: f64,
    /// Total wall-clock spent on this benchmark (calibration + warm-up +
    /// sampling), in milliseconds.
    pub wall_clock_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named collection of benchmarks sharing one config and one JSON report.
pub struct Harness {
    name: String,
    cfg: BenchConfig,
    threads: usize,
    /// `(pool_hits, pool_misses, bytes_recycled)` injected by the bench
    /// binary via [`Harness::set_pool_stats`] (testkit cannot read the
    /// tensor pool itself: the tensor crate dev-depends on testkit).
    pool: Option<(u64, u64, u64)>,
    results: Vec<Stats>,
}

impl Harness {
    /// A harness reading its config from the environment. `name` becomes the
    /// JSON file stem.
    pub fn new(name: &str) -> Self {
        // Cargo invokes bench binaries with `--bench` (and possibly filter
        // args); accept and ignore them for drop-in criterion compatibility.
        Harness::with_config(name, BenchConfig::default())
    }

    /// A harness with an explicit config (tests; exotic setups).
    pub fn with_config(name: &str, cfg: BenchConfig) -> Self {
        eprintln!("bench harness `{name}`: {} sample(s)", cfg.samples);
        // Default the reported thread count to the SSDREC_THREADS contract
        // shared with `ssdrec-runtime` (testkit must not depend on it: the
        // runtime dev-depends on testkit). Sweeping benchmarks override via
        // [`Harness::set_threads`].
        let threads = std::env::var("SSDREC_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        Harness {
            name: name.to_string(),
            cfg,
            threads,
            pool: None,
            results: Vec::new(),
        }
    }

    /// Record the compute thread count the following benchmarks run under
    /// (reported as the `threads` field of the JSON output).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Record tensor-pool telemetry for the JSON report (`pool_hits`,
    /// `pool_misses`, `bytes_recycled`). Bench binaries read these from
    /// `ssdrec_tensor::pool::global_stats()` just before
    /// [`Harness::finish`]; un-set values are reported as 0.
    pub fn set_pool_stats(&mut self, hits: u64, misses: u64, bytes_recycled: u64) {
        self.pool = Some((hits, misses, bytes_recycled));
    }

    /// Time `f`, which is called repeatedly; its return value is passed
    /// through [`black_box`] so the computation is not optimised away.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> &Stats {
        let bench_start = Instant::now();
        // Calibrate: how many iterations fill one sample target?
        let mut iters: u64 = 1;
        if !self.cfg.sample_target.is_zero() {
            loop {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                let elapsed = t0.elapsed();
                if elapsed >= self.cfg.sample_target || iters >= 1 << 40 {
                    break;
                }
                // Aim straight at the target with a growth cap to converge fast
                // on both sub-ns and multi-ms workloads.
                let ratio = self.cfg.sample_target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                iters = (iters as f64 * ratio.clamp(1.5, 100.0)).ceil() as u64;
            }
        }

        // Warm-up.
        let warm_end = Instant::now() + self.cfg.warmup;
        while Instant::now() < warm_end {
            black_box(f());
        }

        // Sample.
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));

        let stats = Stats {
            id: id.to_string(),
            iters_per_sample: iters,
            samples: per_iter_ns.len(),
            min_ns: per_iter_ns[0],
            median_ns: percentile(&per_iter_ns, 0.5),
            p95_ns: percentile(&per_iter_ns, 0.95),
            max_ns: *per_iter_ns.last().unwrap(),
            wall_clock_ms: bench_start.elapsed().as_secs_f64() * 1e3,
        };
        eprintln!(
            "  {:<40} median {:>12}   p95 {:>12}   ({} iters/sample)",
            stats.id,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.iters_per_sample
        );
        self.results.push(stats);
        self.results.last().unwrap()
    }

    /// All stats collected so far.
    pub fn results(&self) -> &[Stats] {
        &self.results
    }

    /// Peak resident set size of this process in bytes, read from
    /// `VmHWM` in `/proc/self/status`. Returns 0 where procfs is
    /// unavailable (non-Linux) so the JSON field is always present.
    pub fn peak_rss_bytes() -> u64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                // Format: "VmHWM:    123456 kB".
                let kb = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }

    /// Render the JSON report (hand-rolled: ids contain no characters that
    /// need escaping beyond quotes/backslashes, but escape them anyway).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"harness\": \"{}\",\n", escape(&self.name)));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        let (ph, pm, pb) = self.pool.unwrap_or((0, 0, 0));
        out.push_str(&format!("  \"pool_hits\": {ph},\n"));
        out.push_str(&format!("  \"pool_misses\": {pm},\n"));
        out.push_str(&format!("  \"bytes_recycled\": {pb},\n"));
        out.push_str(&format!(
            "  \"peak_rss_bytes\": {},\n",
            Harness::peak_rss_bytes()
        ));
        out.push_str("  \"benchmarks\": [\n");
        for (i, s) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                 \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"max_ns\": {:.1}, \
                 \"wall_clock_ms\": {:.3}}}{}\n",
                escape(&s.id),
                s.iters_per_sample,
                s.samples,
                s.min_ns,
                s.median_ns,
                s.p95_ns,
                s.max_ns,
                s.wall_clock_ms,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `target/ssdrec-bench/<name>.json` under the workspace target
    /// directory. Harnesses dropped without calling this only lose the JSON
    /// file.
    pub fn finish(&mut self) {
        let dir = target_dir().join("ssdrec-bench");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "bench harness `{}`: cannot create {}: {e}",
                self.name,
                dir.display()
            );
            return;
        }
        let path = dir.join(format!("{}.json", self.name));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("bench harness `{}`: wrote {}", self.name, path.display()),
            Err(e) => eprintln!(
                "bench harness `{}`: cannot write {}: {e}",
                self.name,
                path.display()
            ),
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The cargo target directory: `CARGO_TARGET_DIR` when set, otherwise
/// `target/` under the outermost ancestor holding a `Cargo.lock` (cargo runs
/// bench binaries with cwd = the *package* dir, so a bare relative `target`
/// would scatter reports across `crates/*/target/`). Falls back to
/// cwd-relative `target`.
pub fn target_dir() -> std::path::PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        return std::path::PathBuf::from(dir);
    }
    if let Ok(cwd) = std::env::current_dir() {
        if let Some(root) = cwd
            .ancestors()
            .filter(|a| a.join("Cargo.lock").is_file())
            .last()
        {
            return root.join("target");
        }
    }
    std::path::PathBuf::from("target")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            samples: 5,
            sample_target: Duration::from_micros(200),
            warmup: Duration::ZERO,
        }
    }

    #[test]
    fn collects_ordered_stats() {
        let mut h = Harness::with_config("unit", fast_cfg());
        let s = h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
        assert_eq!(s.samples, 5);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn json_contains_all_benchmarks() {
        let mut h = Harness::with_config("unit_json", fast_cfg());
        h.bench("a", || 1 + 1);
        h.bench("b", || 2 + 2);
        let json = h.to_json();
        assert!(json.contains("\"harness\": \"unit_json\""));
        assert!(json.contains("\"id\": \"a\""));
        assert!(json.contains("\"id\": \"b\""));
        assert!(json.contains("median_ns"));
        assert!(json.contains("\"threads\": "));
        assert!(json.contains("wall_clock_ms"));
    }

    #[test]
    fn threads_field_is_overridable_and_wall_clock_positive() {
        let mut h = Harness::with_config("unit_threads", fast_cfg());
        h.set_threads(4);
        let s = h.bench("spin", || std::hint::black_box(3u64).wrapping_mul(7));
        assert!(s.wall_clock_ms > 0.0);
        assert!(h.to_json().contains("\"threads\": 4,"));
    }

    #[test]
    fn pool_fields_default_to_zero_and_are_settable() {
        let mut h = Harness::with_config("unit_pool", fast_cfg());
        h.bench("a", || 1 + 1);
        let json = h.to_json();
        assert!(json.contains("\"pool_hits\": 0,"));
        assert!(json.contains("\"pool_misses\": 0,"));
        assert!(json.contains("\"bytes_recycled\": 0,"));
        h.set_pool_stats(12, 3, 4096);
        let json = h.to_json();
        assert!(json.contains("\"pool_hits\": 12,"));
        assert!(json.contains("\"pool_misses\": 3,"));
        assert!(json.contains("\"bytes_recycled\": 4096,"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux_and_in_json() {
        let rss = Harness::peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
        let mut h = Harness::with_config("unit_rss", fast_cfg());
        h.bench("a", || 1 + 1);
        assert!(h.to_json().contains("\"peak_rss_bytes\": "));
    }

    #[test]
    fn percentile_of_known_data() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.5), 3.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 5.0);
    }

    #[test]
    fn fast_mode_runs_single_iteration() {
        let cfg = BenchConfig {
            samples: 1,
            sample_target: Duration::ZERO,
            warmup: Duration::ZERO,
        };
        let mut calls = 0u32;
        let mut h = Harness::with_config("unit_fast", cfg);
        h.bench("once", || calls += 1);
        // 1 calibration-free sample of 1 iteration (black_box keeps the call).
        assert!(calls >= 1 && calls <= 2, "calls = {calls}");
    }
}
