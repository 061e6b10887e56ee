//! Out-of-core data-pipeline benchmark: columnar encode and scan
//! throughput, pass-based graph construction, and the peak-RSS contract.
//!
//! Three phases over a scratch `.ssdc` file:
//!
//! 1. **Encode** — stream a synthetic corpus straight to disk with
//!    `generate_to` (never materializing the dataset) and report
//!    interactions/sec plus the on-disk byte size.
//! 2. **Scan** — read every sequence back through the windowed
//!    `ColumnarReader` (one reusable buffer, bounded window) and report
//!    interactions/sec.
//! 3. **Graph** — build all five relation CSRs with
//!    `build_graph_from_store` in counting passes over the store.
//!
//! Peak RSS (`VmHWM`) is read at the end; in `--full` mode — 1M users ×
//! 100K items, ~9M interactions — the run *asserts* peak RSS stays under
//! [`FULL_RSS_BUDGET`], pinning the bounded-RAM claim of the out-of-core
//! pipeline (see DESIGN.md §14).
//!
//! The report is written to `target/ssdrec-bench/bench_data.json` and,
//! outside fast mode, to `BENCH_data.json` at the repository root.
//!
//! `cargo run --release -p ssdrec-bench --bin bench_data [-- --fast | -- --full]`
//!
//! `--fast` (or `SSDREC_BENCH_FAST=1`) shrinks the corpus to a CI smoke.

use std::time::Instant;

use ssdrec_data::{ColumnarReader, SequenceStore, SyntheticConfig, TruncatedStore};
use ssdrec_graph::{build_graph_from_store, GraphConfig};
use ssdrec_testkit::bench::Harness;

/// Peak-RSS ceiling for the `--full` 1M-user × 100K-item run, in bytes.
///
/// The graph build dominates: the five CSRs plus the transition
/// contribution buffer sit around 2–3 GiB at this scale; 8 GiB leaves
/// headroom without letting the "bounded RAM" claim degenerate into
/// "fits in a 128 GiB box".
const FULL_RSS_BUDGET: u64 = 8 * 1024 * 1024 * 1024;

struct Config {
    fast: bool,
    full: bool,
    num_users: usize,
    num_items: usize,
    graph: GraphConfig,
}

fn config() -> Config {
    let fast = ssdrec_bench::fast_mode();
    let full = !fast && std::env::args().skip(1).any(|a| a == "--full");
    if fast {
        Config {
            fast,
            full,
            num_users: 2_000,
            num_items: 1_000,
            graph: GraphConfig::default(),
        }
    } else if full {
        // At 100K items the uncapped similar/incompatible relations would
        // enumerate hundreds of millions of item pairs; the caps bound the
        // pair fan-out per item/context without touching the small-scale
        // (default-config) behavior the regression hashes pin.
        Config {
            fast,
            full,
            num_users: 1_000_000,
            num_items: 100_000,
            graph: GraphConfig {
                max_item_users: 16,
                max_context_items: 64,
                ..GraphConfig::default()
            },
        }
    } else {
        Config {
            fast,
            full,
            num_users: 50_000,
            num_items: 10_000,
            graph: GraphConfig::default(),
        }
    }
}

fn main() {
    let cfg = config();
    let threads = ssdrec_runtime::threads();
    let mode = if cfg.fast {
        "fast"
    } else if cfg.full {
        "full"
    } else {
        "default"
    };
    eprintln!(
        "bench_data: encode → scan → graph ({mode} mode, {} users × {} items)",
        cfg.num_users, cfg.num_items
    );

    let work = ssdrec_bench::bench_dir().join("data-work");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("scratch dir");
    let path = work.join("corpus.ssdc");

    let gen = SyntheticConfig {
        name: format!("bench-{mode}"),
        num_users: cfg.num_users,
        num_items: cfg.num_items,
        num_clusters: (cfg.num_items / 25).clamp(4, 256),
        avg_len: 9,
        min_len: 5,
        stay_prob: 0.7,
        noise_ratio: 0.1,
        zipf_s: 1.1,
        seed: 7,
    };

    // Phase 1: encode. The generator streams users straight into the
    // columnar writer — the corpus never exists in RAM all at once.
    let t0 = Instant::now();
    let summary = gen.generate_to(&path).expect("generate_to");
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let interactions = summary.num_interactions;
    let encode_ips = interactions as f64 / (encode_ms / 1e3).max(1e-9);
    eprintln!(
        "  encode: {interactions} interactions → {} bytes in {encode_ms:.1} ms ({encode_ips:.0} inter/s)",
        summary.bytes
    );

    // Phase 2: scan. Full sequential pass through the windowed reader with
    // one reusable buffer — the steady-state read pattern of training.
    let reader = ColumnarReader::open(&path).expect("open");
    let t0 = Instant::now();
    let mut buf = Vec::new();
    let mut checksum = 0u64;
    for u in 0..SequenceStore::num_users(&reader) {
        reader.read_seq(u, &mut buf);
        checksum = checksum.wrapping_add(buf.iter().map(|&i| i as u64).sum::<u64>());
    }
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let scan_ips = interactions as f64 / (scan_ms / 1e3).max(1e-9);
    assert!(checksum > 0, "scan must observe real items");
    eprintln!("  scan  : {interactions} interactions in {scan_ms:.1} ms ({scan_ips:.0} inter/s)");

    // Phase 3: graph. Counting passes over the (truncated) store — no
    // HashMap intermediates, peak RAM is the CSRs themselves.
    let store = TruncatedStore::new(&reader, 50);
    let t0 = Instant::now();
    let graph = build_graph_from_store(&store, &cfg.graph);
    let graph_ms = t0.elapsed().as_secs_f64() * 1e3;
    let graph_ips = interactions as f64 / (graph_ms / 1e3).max(1e-9);
    let graph_edges = graph.total_edges();
    eprintln!("  graph : {graph_edges} edges in {graph_ms:.1} ms ({graph_ips:.0} inter/s)");
    drop(graph);

    let peak_rss = Harness::peak_rss_bytes();
    eprintln!(
        "  peak RSS: {:.1} MiB (budget for --full: {:.0} MiB)",
        peak_rss as f64 / (1024.0 * 1024.0),
        FULL_RSS_BUDGET as f64 / (1024.0 * 1024.0)
    );
    if cfg.full {
        assert!(
            peak_rss > 0,
            "--full requires a readable VmHWM to enforce the RSS budget"
        );
        assert!(
            peak_rss < FULL_RSS_BUDGET,
            "peak RSS {peak_rss} bytes exceeds the documented --full budget {FULL_RSS_BUDGET}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"data\",\n  \"mode\": \"{mode}\",\n  \"threads\": {threads},\n  \
         \"num_users\": {},\n  \"num_items\": {},\n  \"interactions\": {interactions},\n  \
         \"file_bytes\": {},\n  \"encode_ms\": {encode_ms:.3},\n  \
         \"encode_interactions_per_sec\": {encode_ips:.1},\n  \"scan_ms\": {scan_ms:.3},\n  \
         \"scan_interactions_per_sec\": {scan_ips:.1},\n  \"graph_ms\": {graph_ms:.3},\n  \
         \"graph_interactions_per_sec\": {graph_ips:.1},\n  \"graph_edges\": {graph_edges},\n  \
         \"peak_rss_bytes\": {peak_rss},\n  \"rss_budget_bytes\": {FULL_RSS_BUDGET}\n}}\n",
        cfg.num_users, cfg.num_items, summary.bytes,
    );

    // Self-check: the report must carry the fields CI validates.
    let (path, parsed) = ssdrec_bench::write_report("data", &json, cfg.fast);
    // Byte/RSS counts exceed the request-parser's u32 `as_usize` cap at full
    // scale; validate them as finite numbers instead.
    for field in [
        "interactions",
        "file_bytes",
        "graph_edges",
        "peak_rss_bytes",
        "rss_budget_bytes",
        "encode_interactions_per_sec",
        "scan_interactions_per_sec",
        "graph_interactions_per_sec",
    ] {
        assert!(
            parsed.get(field).and_then(|v| v.as_f64()).is_some(),
            "missing field {field}"
        );
    }

    println!(
        "bench_data: {encode_ips:.0} inter/s encode, {scan_ips:.0} inter/s scan, \
         {graph_ms:.0} ms graph, peak RSS {:.1} MiB; wrote {}",
        peak_rss as f64 / (1024.0 * 1024.0),
        path.display()
    );
}
