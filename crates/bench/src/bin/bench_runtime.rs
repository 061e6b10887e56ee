//! Thread-scaling and kernel-backend benchmark for the runtime hot paths.
//!
//! Two sweeps, one report (`target/ssdrec-bench/bench_runtime.json`, and
//! outside fast mode `BENCH_runtime.json` at the repository root):
//!
//! 1. **Thread sweep** — `SSDREC_THREADS` ∈ {1, 2, 4, 8} over the three hot
//!    paths the runtime accelerates: a full-catalogue-sized gemm, one
//!    training epoch, and a full evaluation pass (under the default kernel
//!    backend).
//! 2. **Kernel backend sweep** — single-threaded, per-kernel timings of the
//!    `reference` oracle vs the `blocked` backend, via direct
//!    [`ssdrec_tensor::Backend`] calls: all four gemm transpose variants
//!    plus the fused element-wise kernels.
//!
//! Alongside the timings the binary **asserts the determinism contract**:
//! thread-sweep output bits must be identical at every thread count, and
//! every kernel-sweep cell must be bit-identical between backends (the v1
//! kernel bits-contract). In full mode it additionally asserts the blocked
//! backend's best gemm-variant speedup is ≥ 2× over the reference oracle.
//! Any violation exits non-zero.
//!
//! `cargo run --release -p ssdrec-bench --bin bench_runtime [-- --fast]`
//!
//! `--fast` (or `SSDREC_BENCH_FAST=1`) shrinks the workload to a CI smoke
//! that still exercises every code path, including the JSON self-check
//! (speedups are recorded but not asserted in fast mode — smoke shapes are
//! too small to be meaningful).

use std::time::Instant;

use ssdrec_data::{make_batches, prepare, Split, SyntheticConfig};
use ssdrec_models::{evaluate, BackboneKind, RecModel, SeqRec};
use ssdrec_tensor::backend::{Blocked, Reference, KERNEL_BITS_MAX_ULPS, KERNEL_BITS_VERSION};
use ssdrec_tensor::kernels::matmul;
use ssdrec_tensor::{Activation, Adam, Backend, Graph, Rng, Tensor};
use ssdrec_testkit::bench::{BenchConfig, Harness};

const SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Config {
    fast: bool,
    /// gemm shape: scoring-shaped `B×d · d×V`.
    gemm_m: usize,
    gemm_k: usize,
    gemm_n: usize,
    /// Dataset scale for the epoch/eval workloads.
    scale: f64,
    dim: usize,
    batch_size: usize,
    /// Timing repetitions (best-of).
    reps: usize,
}

fn config() -> Config {
    let fast = ssdrec_bench::fast_mode();
    if fast {
        Config {
            fast,
            gemm_m: 64,
            gemm_k: 32,
            gemm_n: 512,
            scale: 0.02,
            dim: 8,
            batch_size: 32,
            reps: 1,
        }
    } else {
        Config {
            fast,
            gemm_m: 128,
            gemm_k: 64,
            gemm_n: 2048,
            scale: 0.08,
            dim: 16,
            batch_size: 64,
            reps: 3,
        }
    }
}

/// Deterministic dense fill shared by every sweep point.
fn fill(n: usize, salt: u64) -> Vec<f32> {
    let mut rng = Rng::seed(salt);
    (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Wrapping sum of the raw bit patterns: equal ⇔ (almost surely) the same
/// bits in the same order — a compact identity witness per sweep point.
fn bit_checksum(data: &[f32]) -> u64 {
    data.iter().fold(0u64, |acc, x| {
        acc.wrapping_mul(31).wrapping_add(x.to_bits() as u64)
    })
}

/// One training epoch over `split.train` (the trainer's inner loop on the
/// public model API), returning the mean loss.
fn run_epoch(model: &mut SeqRec, split: &Split, batch_size: usize) -> f32 {
    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed(7);
    let batches = make_batches(&split.train, batch_size, 7);
    let mut total = 0.0f32;
    let mut nb = 0usize;
    let mut g = Graph::new();
    let mut ws = ssdrec_tensor::Gradients::new();
    for batch in &batches {
        g.reset();
        let bind = model.store().bind_all(&mut g);
        let loss = model.loss(&mut g, &bind, batch, &mut rng);
        let lv = g.value(loss).item();
        if lv.is_finite() {
            total += lv;
            nb += 1;
            g.backward_into(loss, &mut ws);
            opt.step(model.store_mut(), &bind, &mut ws);
        }
    }
    if nb > 0 {
        total / nb as f32
    } else {
        f32::NAN
    }
}

/// Best-of-`reps` wall-clock milliseconds of `f`.
fn time_best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

struct SweepPoint {
    threads: usize,
    gemm_ms: f64,
    epoch_ms: f64,
    eval_ms: f64,
    gemm_checksum: u64,
    loss_bits: u32,
    hr10_bits: u64,
    ndcg10_bits: u64,
}

struct KernelPoint {
    kernel: &'static str,
    reference_ms: f64,
    blocked_ms: f64,
    speedup: f64,
    bits_match: bool,
}

/// Single-threaded per-kernel comparison of the two backends, via direct
/// [`Backend`] trait calls (the runtime pool is not involved, so thread
/// configuration cannot leak in). Each cell also witnesses the v1 kernel
/// bits-contract: both backends must produce identical output bits.
fn kernel_sweep(cfg: &Config) -> Vec<KernelPoint> {
    let (m, k, n) = (cfg.gemm_m, cfg.gemm_k, cfg.gemm_n);
    let rows = m;
    let iters = if cfg.fast { 2 } else { 5 };

    // Operand layouts per transpose flag: `ta` stores `a` as k×m, `tb`
    // stores `b` as n×k. Fresh salts so no operand aliases another.
    let a_n = fill(m * k, 11);
    let a_t = fill(k * m, 12);
    let b_n = fill(k * n, 13);
    let b_t = fill(n * k, 14);
    let x = fill(rows * n, 15);
    let bias = fill(n, 16);
    let gamma = fill(n, 17);
    let beta = fill(n, 18);
    // A causal-ish row mask with the large-finite sentinel the attention
    // path uses (−1e9), never infinities (finite-input contract).
    let mask: Vec<f32> = fill(n, 19)
        .iter()
        .map(|&v| if v > 0.0 { 0.0 } else { -1e9 })
        .collect();

    let mut points: Vec<KernelPoint> = Vec::new();
    let mut sweep = |kernel: &'static str, out_len: usize, f: &dyn Fn(&dyn Backend, &mut [f32])| {
        let time_one = |be: &dyn Backend| {
            let mut out = vec![0.0f32; out_len];
            let mut best = f64::INFINITY;
            for _ in 0..cfg.reps.max(1) {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f(be, &mut out);
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e3 / iters as f64);
            }
            (best, out)
        };
        let (reference_ms, ro) = time_one(&Reference);
        let (blocked_ms, bo) = time_one(&Blocked);
        let bits_match =
            ro.len() == bo.len() && ro.iter().zip(&bo).all(|(a, b)| a.to_bits() == b.to_bits());
        points.push(KernelPoint {
            kernel,
            reference_ms,
            blocked_ms,
            speedup: reference_ms / blocked_ms.max(1e-9),
            bits_match,
        });
    };

    sweep("gemm_nn", m * n, &|be, out| {
        out.fill(0.0);
        be.gemm_rows(&a_n, false, &b_n, false, m, k, n, out, 0, m);
    });
    sweep("gemm_tn", m * n, &|be, out| {
        out.fill(0.0);
        be.gemm_rows(&a_t, true, &b_n, false, m, k, n, out, 0, m);
    });
    sweep("gemm_nt", m * n, &|be, out| {
        out.fill(0.0);
        be.gemm_rows(&a_n, false, &b_t, true, m, k, n, out, 0, m);
    });
    sweep("gemm_tt", m * n, &|be, out| {
        out.fill(0.0);
        be.gemm_rows(&a_t, true, &b_t, true, m, k, n, out, 0, m);
    });
    sweep("bias_act_relu", rows * n, &|be, out| {
        be.bias_act(&x, &bias, Activation::Relu, out);
    });
    sweep("softmax_rows", rows * n, &|be, out| {
        be.softmax_rows(&x, out, n);
    });
    sweep("layer_norm_rows", rows * n, &|be, out| {
        be.layer_norm_rows(&x, &gamma, &beta, out, n);
    });
    sweep("scaled_masked_softmax", rows * n, &|be, out| {
        be.scaled_masked_softmax(&x, 0.125, Some(&mask), out, n);
    });
    points
}

fn main() {
    let cfg = config();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "bench_runtime: sweeping threads {SWEEP:?} on a {host_cpus}-cpu host{}",
        if cfg.fast { " (fast mode)" } else { "" }
    );

    // Kernel backend sweep (single-threaded, direct Backend calls).
    let kernels = kernel_sweep(&cfg);
    for p in &kernels {
        eprintln!(
            "  kernel {}: reference {:.3} ms, blocked {:.3} ms, {:.2}x, bits_match={}",
            p.kernel, p.reference_ms, p.blocked_ms, p.speedup, p.bits_match
        );
        assert!(
            p.bits_match,
            "kernel {} violated the v1 bits-contract: backends diverged",
            p.kernel
        );
    }
    let gemm_speedup_best = kernels
        .iter()
        .filter(|p| p.kernel.starts_with("gemm_"))
        .map(|p| p.speedup)
        .fold(0.0f64, f64::max);
    if cfg.fast {
        eprintln!("  kernels: best gemm speedup {gemm_speedup_best:.2}x (recorded, not asserted)");
    } else {
        assert!(
            gemm_speedup_best >= 2.0,
            "blocked backend's best gemm variant must be >= 2x over reference, got {gemm_speedup_best:.2}x"
        );
        eprintln!("  kernels: best gemm speedup {gemm_speedup_best:.2}x (>= 2x contract holds)");
    }

    let a = Tensor::new(fill(cfg.gemm_m * cfg.gemm_k, 1), &[cfg.gemm_m, cfg.gemm_k]);
    let b = Tensor::new(fill(cfg.gemm_k * cfg.gemm_n, 2), &[cfg.gemm_k, cfg.gemm_n]);
    let raw = SyntheticConfig::beauty()
        .scaled(cfg.scale)
        .with_seed(7)
        .generate();
    let (dataset, split) = prepare(&raw, 20, 2);
    eprintln!(
        "  data: {} items, {} train / {} test examples",
        dataset.num_items,
        split.train.len(),
        split.test.len()
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    for &threads in &SWEEP {
        ssdrec_runtime::set_threads(threads);

        // gemm goes through the testkit harness so the per-thread JSON under
        // target/ssdrec-bench/ carries the new `threads` field.
        let mut h = Harness::with_config(&format!("runtime_t{threads}"), BenchConfig::default());
        h.set_threads(threads);
        let gemm_stats = h.bench("gemm_scoring_shape", || matmul(&a, &b));
        let gemm_ms = gemm_stats.median_ns / 1e6;
        let gemm_checksum = bit_checksum(matmul(&a, &b).data());
        let pool = ssdrec_tensor::pool::global_stats();
        h.set_pool_stats(pool.hits, pool.misses, pool.bytes_recycled);
        h.finish();

        let (epoch_ms, loss) = time_best_ms(cfg.reps, || {
            let mut model = SeqRec::new(BackboneKind::SasRec, dataset.num_items, cfg.dim, 20, 7);
            run_epoch(&mut model, &split, cfg.batch_size)
        });

        let eval_model = SeqRec::new(BackboneKind::SasRec, dataset.num_items, cfg.dim, 20, 7);
        let (eval_ms, report) = time_best_ms(cfg.reps, || {
            evaluate(&eval_model, &split.test, cfg.batch_size).report()
        });

        eprintln!(
            "  threads {threads}: gemm {gemm_ms:.3} ms, epoch {epoch_ms:.1} ms, eval {eval_ms:.1} ms"
        );
        points.push(SweepPoint {
            threads,
            gemm_ms,
            epoch_ms,
            eval_ms,
            gemm_checksum,
            loss_bits: loss.to_bits(),
            hr10_bits: report.hr10.to_bits(),
            ndcg10_bits: report.ndcg10.to_bits(),
        });
    }
    ssdrec_runtime::set_threads(1);

    // Determinism contract: every sweep point produced identical bits.
    let base = &points[0];
    for p in &points[1..] {
        assert_eq!(
            p.gemm_checksum, base.gemm_checksum,
            "gemm bits diverged at {} threads",
            p.threads
        );
        assert_eq!(
            p.loss_bits, base.loss_bits,
            "epoch loss bits diverged at {} threads",
            p.threads
        );
        assert_eq!(
            (p.hr10_bits, p.ndcg10_bits),
            (base.hr10_bits, base.ndcg10_bits),
            "evaluation metric bits diverged at {} threads",
            p.threads
        );
    }
    eprintln!("  determinism: all outputs bit-identical across the sweep");

    let at = |t: usize, f: fn(&SweepPoint) -> f64| {
        points
            .iter()
            .find(|p| p.threads == t)
            .map(f)
            .expect("sweep point")
    };
    let speedup_gemm_4 = at(1, |p| p.gemm_ms) / at(4, |p| p.gemm_ms).max(1e-9);
    let speedup_eval_4 = at(1, |p| p.eval_ms) / at(4, |p| p.eval_ms).max(1e-9);

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"threads\": {}, \"gemm_ms\": {:.4}, \"epoch_ms\": {:.3}, \
                 \"eval_ms\": {:.3}, \"gemm_bits_checksum\": {}, \"loss_bits\": {}, \
                 \"hr10_bits\": {}, \"ndcg10_bits\": {}}}",
                p.threads,
                p.gemm_ms,
                p.epoch_ms,
                p.eval_ms,
                p.gemm_checksum,
                p.loss_bits,
                p.hr10_bits,
                p.ndcg10_bits
            )
        })
        .collect();
    let kernel_rows: Vec<String> = kernels
        .iter()
        .map(|p| {
            format!(
                "    {{\"kernel\": \"{}\", \"reference_ms\": {:.4}, \"blocked_ms\": {:.4}, \
                 \"speedup\": {:.3}, \"bits_match\": {}}}",
                p.kernel, p.reference_ms, p.blocked_ms, p.speedup, p.bits_match
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"runtime\",\n  \"fast\": {},\n  \"host_cpus\": {},\n  \
         \"backend_default\": \"{}\",\n  \
         \"kernel_contract\": {{\"version\": {}, \"max_ulps\": {}}},\n  \
         \"bit_identical_across_sweep\": true,\n  \
         \"speedup_at_4_threads\": {{\"gemm\": {:.3}, \"eval\": {:.3}}},\n  \
         \"gemm_speedup_best_1t\": {:.3},\n  \
         \"kernel_sweep_1t\": [\n{}\n  ],\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        cfg.fast,
        host_cpus,
        ssdrec_tensor::backend_kind().name(),
        KERNEL_BITS_VERSION,
        KERNEL_BITS_MAX_ULPS,
        speedup_gemm_4,
        speedup_eval_4,
        gemm_speedup_best,
        kernel_rows.join(",\n"),
        rows.join(",\n")
    );

    // Self-check: both sweeps must be in the report in full.
    let (path, parsed) = ssdrec_bench::write_report("runtime", &json, cfg.fast);
    assert_eq!(
        parsed
            .get("sweep")
            .and_then(|s| s.as_arr())
            .map(|a| a.len()),
        Some(SWEEP.len())
    );
    assert_eq!(
        parsed
            .get("kernel_sweep_1t")
            .and_then(|s| s.as_arr())
            .map(|a| a.len()),
        Some(kernels.len())
    );

    println!(
        "bench_runtime: speedup@4 gemm {speedup_gemm_4:.2}x, eval {speedup_eval_4:.2}x, \
         best 1-thread gemm backend speedup {gemm_speedup_best:.2}x \
         (host has {host_cpus} cpu(s)); wrote {}",
        path.display()
    );
}
