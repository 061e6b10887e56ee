//! Property suite for the deterministic HNSW index: exactness in the
//! degenerate regime, recall sanity in the approximate regime, and
//! tie-break agreement with the shared pessimistic top-K.

use ssdrec_ann::{rerank_score, AnnParams, HnswIndex};
use ssdrec_metrics::{top_k, top_k_sparse};
use ssdrec_testkit::Rng;

fn gaussian_table(count: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed(seed);
    let mut t = vec![0.0f32; (count + 1) * dim];
    for v in t.iter_mut().skip(dim) {
        // Box–Muller-free approximation: sum of uniforms is fine here.
        *v = (0..4).map(|_| rng.next_f32()).sum::<f32>() - 2.0;
    }
    t
}

/// The full exact score row (index = item id, pad at 0 scored −inf-ish low
/// so it never competes), built with the same arithmetic the re-rank uses.
fn dense_scores(table: &[f32], dim: usize, count: usize, q: &[f32]) -> Vec<f32> {
    let mut row = vec![f32::NEG_INFINITY; count + 1];
    for i in 1..=count {
        row[i] = rerank_score(q, &table[i * dim..(i + 1) * dim]);
    }
    row
}

/// Run the two-stage pipeline: ANN candidates + exact re-rank + shared
/// pessimistic top-K.
fn ann_top_k(
    idx: &HnswIndex,
    table: &[f32],
    dim: usize,
    q: &[f32],
    ef: usize,
    k: usize,
) -> Vec<(usize, f32)> {
    let cands = idx.candidates(q, ef);
    top_k_sparse(
        cands.iter().map(|&c| {
            let ci = c as usize;
            (ci, rerank_score(q, &table[ci * dim..(ci + 1) * dim]))
        }),
        k,
    )
}

#[test]
fn recall_is_one_when_ef_covers_the_catalogue() {
    let (dim, n) = (8, 300);
    let table = gaussian_table(n, dim, 42);
    let idx = HnswIndex::build(&table, dim, n, AnnParams::default()).expect("build");
    let mut rng = Rng::seed(7);
    for case in 0..20 {
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
        let exact = top_k(&dense_scores(&table, dim, n, &q), 10);
        // ef == catalogue and ef > catalogue must both be exhaustive.
        for ef in [n, n + 57] {
            let ann = ann_top_k(&idx, &table, dim, &q, ef, 10);
            assert_eq!(ann, exact, "case {case}, ef {ef}: recall@10 must be 1.0");
            for (a, e) in ann.iter().zip(&exact) {
                assert_eq!(a.1.to_bits(), e.1.to_bits(), "bit-exact re-rank scores");
            }
        }
    }
}

#[test]
fn recall_at_default_ef_is_high_on_a_real_beam() {
    // Approximate regime (ef ≪ catalogue): not exact by construction, but
    // the default parameters must keep recall@10 high — this is the same
    // bound `ssdrec-bench retrieval` asserts at catalogue scale.
    let (dim, n) = (16, 2_000);
    let table = gaussian_table(n, dim, 1234);
    let idx = HnswIndex::build(&table, dim, n, AnnParams::default()).expect("build");
    let mut rng = Rng::seed(99);
    let mut hit = 0usize;
    let mut total = 0usize;
    for _ in 0..30 {
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
        let exact: Vec<usize> = top_k(&dense_scores(&table, dim, n, &q), 10)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let ann = ann_top_k(&idx, &table, dim, &q, 128, 10);
        hit += ann.iter().filter(|(i, _)| exact.contains(i)).count();
        total += exact.len();
    }
    let recall = hit as f64 / total as f64;
    assert!(recall >= 0.95, "recall@10 at ef=128 on 2K items: {recall}");
}

#[test]
fn duplicate_scores_agree_with_shared_top_k_ties() {
    // A catalogue of 120 items holding only 6 distinct embeddings: every
    // query sees 20-way score ties. The re-rank path must resolve them
    // exactly like `ssdrec_metrics::top_k` on the dense row — equal scores
    // break to the lower item id, at every pipeline stage.
    let (dim, n, distinct) = (8, 120, 6);
    let protos = gaussian_table(distinct, dim, 5);
    let mut table = vec![0.0f32; (n + 1) * dim];
    for i in 1..=n {
        let p = 1 + (i - 1) % distinct;
        table[i * dim..(i + 1) * dim].copy_from_slice(&protos[p * dim..(p + 1) * dim]);
    }
    let idx = HnswIndex::build(&table, dim, n, AnnParams::default()).expect("build");
    let mut rng = Rng::seed(11);
    for case in 0..10 {
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
        let dense = dense_scores(&table, dim, n, &q);
        let exact = top_k(&dense, 10);
        // Degenerate beam: full agreement including tie order.
        let ann = ann_top_k(&idx, &table, dim, &q, n, 10);
        assert_eq!(ann, exact, "case {case}: exhaustive ties must match");
        // Narrow beam: the candidate search itself breaks ties to lower
        // ids, so the winning duplicate cluster's lowest ids must surface.
        let ann = ann_top_k(&idx, &table, dim, &q, 40, 10);
        for (pos, &(item, score)) in ann.iter().enumerate() {
            assert_eq!(
                score.to_bits(),
                dense[item].to_bits(),
                "case {case}: re-rank score is the exact score"
            );
            if pos > 0 {
                let prev = ann[pos - 1];
                assert!(
                    prev.1 > score || (prev.1 == score && prev.0 < item),
                    "case {case}: pessimistic order within the result"
                );
            }
        }
    }
}

#[test]
fn build_is_byte_identical_across_thread_counts() {
    // The batched insert parallelizes candidate search across the runtime
    // pool; the commit order is fixed, so the pool width must never leak
    // into the graph. (Thread-count invariance is the whole point — if a
    // sibling test's build overlaps a pool resize here, its bytes still
    // may not change.)
    let (dim, n) = (8, 400);
    let table = gaussian_table(n, dim, 31);
    let mut reference: Option<Vec<u8>> = None;
    for threads in [1usize, 4] {
        ssdrec_runtime::set_threads(threads);
        let idx = HnswIndex::build(&table, dim, n, AnnParams::default()).expect("build");
        let bytes = idx.to_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(want) => assert_eq!(&bytes, want, "index diverged at {threads} threads"),
        }
    }
    ssdrec_runtime::set_threads(1);
}

#[test]
fn two_builds_are_byte_identical() {
    let (dim, n) = (8, 500);
    let table = gaussian_table(n, dim, 77);
    let params = AnnParams::default();
    let a = HnswIndex::build(&table, dim, n, params).expect("a");
    let b = HnswIndex::build(&table, dim, n, params).expect("b");
    assert_eq!(a.to_bytes(), b.to_bytes(), "same inputs ⇒ same index bytes");
    // And a different seed is allowed to (and here does) change the graph.
    let c = HnswIndex::build(
        &table,
        dim,
        n,
        AnnParams {
            seed: params.seed + 1,
            ..params
        },
    )
    .expect("c");
    assert_ne!(a.to_bytes(), c.to_bytes(), "seed is part of the contract");
}
