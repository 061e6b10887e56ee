//! The out-of-core data pipeline at a scale no `benchmark/` workload
//! reaches — 1M users × 100K items, ~9M interactions — with its peak-RSS
//! contract asserted.
//!
//! Three phases over a scratch `.ssdc` file:
//!
//! 1. **Encode** — stream a synthetic corpus straight to disk with
//!    `generate_to` (never materializing the dataset).
//! 2. **Scan** — read every sequence back through the windowed
//!    `ColumnarReader` (one reusable buffer, bounded window).
//! 3. **Graph** — build all five relation CSRs with
//!    `build_graph_from_store`: counting passes over the store, then the
//!    quadratic relations row-parallel over the runtime pool.
//!
//! Peak RSS (`VmHWM`) is read at the end and must stay under
//! [`RSS_BUDGET`], pinning the bounded-RAM claim of the out-of-core
//! pipeline (see DESIGN.md §5.2–5.3). `--fast` shrinks the corpus to a smoke of
//! the three phases and asserts no budget. The report goes to
//! `results/data_scale.json`.

use std::time::Instant;

use ssdrec_data::{ColumnarReader, SequenceStore, SyntheticConfig, TruncatedStore};
use ssdrec_graph::{build_graph_from_store, GraphConfig};

use crate::{repo_root, write_results, Args, Scale};

/// Peak-RSS ceiling for the 1M-user × 100K-item run, in bytes.
///
/// The graph build dominates: the transitional intermediates (the
/// contribution buffer, the outgoing / incoming / mass rows) and the
/// finished CSRs peak at ≈ 3.6 GiB at this scale (measured on a 2-cpu
/// host; see DESIGN.md §5.3). 8 GiB leaves headroom without
/// letting the "bounded RAM" claim degenerate into "fits in a 128 GiB
/// box".
const RSS_BUDGET: u64 = 8 * 1024 * 1024 * 1024;

/// Peak resident set size of this process in bytes: `VmHWM` in
/// `/proc/self/status`, 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        });
    kb.unwrap_or(0) * 1024
}

pub(crate) fn run(a: &Args) {
    let fast = a.scale == Scale::Fast;
    let (mode, num_users, num_items, graph_cfg) = if fast {
        ("fast", 2_000, 1_000, GraphConfig::default())
    } else {
        // At 100K items the uncapped similar/incompatible relations would
        // enumerate hundreds of millions of item pairs; the caps bound the
        // pair fan-out per item/context without touching the small-scale
        // (default-config) behavior the regression hashes pin.
        let capped = GraphConfig {
            max_item_users: 16,
            max_context_items: 64,
            ..GraphConfig::default()
        };
        ("full", 1_000_000, 100_000, capped)
    };
    let threads = ssdrec_runtime::threads();
    eprintln!("data-scale: encode → scan → graph ({num_users} users × {num_items} items)");

    let work = repo_root().join("results").join("data-scale-work");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("scratch dir");
    let path = work.join("corpus.ssdc");

    let gen = SyntheticConfig {
        name: format!("bench-{mode}"),
        num_users,
        num_items,
        num_clusters: (num_items / 25).clamp(4, 256),
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

    // Phase 3: graph. Counting passes over the (truncated) store, then
    // row-parallel relations — no HashMap intermediates, no global sorts.
    let store = TruncatedStore::new(&reader, 50);
    let t0 = Instant::now();
    let graph = build_graph_from_store(&store, &graph_cfg);
    let graph_ms = t0.elapsed().as_secs_f64() * 1e3;
    let graph_ips = interactions as f64 / (graph_ms / 1e3).max(1e-9);
    let graph_edges = graph.total_edges();
    eprintln!("  graph : {graph_edges} edges in {graph_ms:.1} ms ({graph_ips:.0} inter/s)");
    drop(graph);
    std::fs::remove_dir_all(&work).ok();

    let peak_rss = peak_rss_bytes();
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    if !fast {
        assert!(
            peak_rss > 0,
            "the RSS budget needs a readable VmHWM in /proc/self/status"
        );
        assert!(
            peak_rss < RSS_BUDGET,
            "peak RSS {peak_rss} bytes exceeds the documented budget {RSS_BUDGET}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"data\",\n  \"mode\": \"{mode}\",\n  \"threads\": {threads},\n  \
         \"num_users\": {num_users},\n  \"num_items\": {num_items},\n  \
         \"interactions\": {interactions},\n  \
         \"file_bytes\": {},\n  \"encode_ms\": {encode_ms:.3},\n  \
         \"encode_interactions_per_sec\": {encode_ips:.1},\n  \"scan_ms\": {scan_ms:.3},\n  \
         \"scan_interactions_per_sec\": {scan_ips:.1},\n  \"graph_ms\": {graph_ms:.3},\n  \
         \"graph_interactions_per_sec\": {graph_ips:.1},\n  \"graph_edges\": {graph_edges},\n  \
         \"peak_rss_bytes\": {peak_rss},\n  \"rss_budget_bytes\": {RSS_BUDGET}\n}}",
        summary.bytes,
    );
    println!(
        "data-scale: {encode_ips:.0} inter/s encode, {scan_ips:.0} inter/s scan, \
         {graph_ms:.0} ms graph, peak RSS {:.1} MiB (budget {:.0} MiB)",
        mib(peak_rss),
        mib(RSS_BUDGET)
    );
    write_results("data_scale.json", &json, &[]);
}
