//! Full-ranking top-K metrics: HR@K, NDCG@K, MRR@K (paper §IV-A1).
//!
//! Following the paper, metrics are computed over the *entire item universe*
//! (full ranking), never over sampled negatives, to avoid sampling bias
//! [Krichene & Rendle, KDD'20].

/// The rank (1-based) of `target` among `scores`, where `scores[i]` is the
/// model score of item ID `i` (index 0 = padding, ignored).
///
/// Ties are resolved pessimistically: items with a strictly higher score and
/// lower-ID items with an equal score rank ahead of the target.
pub fn full_rank(scores: &[f32], target: usize) -> usize {
    let ts = scores[target];
    let mut rank = 1usize;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if i == target {
            continue;
        }
        if s > ts || (s == ts && i < target) {
            rank += 1;
        }
    }
    rank
}

/// One retrieved item: `(item ID, score)`.
type Scored = (usize, f32);

/// Entry ordering shared by [`top_k`] and [`full_rank`]: higher score wins,
/// equal scores break pessimistically toward the lower item ID (so the item
/// at position `p` of [`top_k`] has `full_rank == p + 1`). NaN scores are
/// treated as equal to everything and resolved by ID; model scores are
/// expected to be finite.
fn better(a: Scored, b: Scored) -> bool {
    match a.1.partial_cmp(&b.1) {
        Some(std::cmp::Ordering::Greater) => true,
        Some(std::cmp::Ordering::Less) => false,
        _ => a.0 < b.0,
    }
}

/// A min-heap entry wrapper: the heap root is the *worst* retained item.
struct HeapEntry(Scored);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        !better(self.0, other.0) && !better(other.0, self.0)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: a *better* item is "smaller" so BinaryHeap (a max-heap)
        // keeps the worst retained item at the root for cheap eviction.
        if better(self.0, other.0) {
            std::cmp::Ordering::Less
        } else if better(other.0, self.0) {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Equal
        }
    }
}

/// The best `k` of `cands` under [`better`], best first, kept in a bounded
/// min-heap: `O(n log k)` instead of a full `O(n log n)` sort. Candidates
/// are offered in iteration order; the order is total over distinct IDs,
/// so the result is the best-`k` prefix of the candidates' full ranking.
fn select(cands: impl IntoIterator<Item = Scored>, k: usize) -> Vec<Scored> {
    use std::collections::BinaryHeap;
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for cand in cands {
        if heap.len() < k {
            heap.push(HeapEntry(cand));
        } else if better(cand, heap.peek().expect("non-empty").0) {
            heap.pop();
            heap.push(HeapEntry(cand));
        }
    }
    let mut out: Vec<Scored> = heap.into_iter().map(|e| e.0).collect();
    out.sort_by(|&a, &b| {
        if better(a, b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    out
}

/// Partial top-`k` selection over full-catalogue `scores` (index = item ID,
/// index 0 = padding, never returned) by [`select`]. Returns at most `k`
/// items in descending score order with the same pessimistic tie rule as
/// [`full_rank`] — ties go to the lower item ID, so the result is exactly
/// the prefix of the full ranking.
///
/// Shared by offline evaluation (`RecModel::recommend` in `ssdrec-models`)
/// and the online retrieval engine in `ssdrec-serve`.
pub fn top_k(scores: &[f32], k: usize) -> Vec<Scored> {
    select(scores.iter().copied().enumerate().skip(1), k)
}

/// [`top_k`] restricted to item IDs in `[lo, hi)` (index 0 still skipped).
fn top_k_range(scores: &[f32], k: usize, lo: usize, hi: usize) -> Vec<Scored> {
    select((lo.max(1)..hi).map(|i| (i, scores[i])), k)
}

/// [`top_k`] over a sparse candidate set `(item ID, score)` instead of a
/// dense score row — the selection stage of two-stage (ANN + exact re-rank)
/// retrieval, which serving no longer runs; only the benchmark's ANN probe
/// calls it. Same [`select`], same [`better`] total order: fed the full
/// catalogue it returns exactly what [`top_k`] returns on the dense row,
/// and on any subset the result is the best-`k` prefix of that subset
/// under the pessimistic tie rule (equal scores break to the lower item
/// ID). The pad item 0 is skipped, duplicate IDs are the caller's bug (the
/// duplicate entries would compete independently).
pub fn top_k_sparse(cands: impl IntoIterator<Item = Scored>, k: usize) -> Vec<Scored> {
    select(cands.into_iter().filter(|&(i, _)| i != 0), k)
}

/// Catalogue size below which [`par_top_k`] falls through to [`top_k`].
const PAR_TOPK_MIN: usize = 4096;

/// Parallel [`top_k`]: the catalogue is split into item-ID ranges, each
/// range selects its local top `k`, and sorted candidate lists are merged
/// pairwise. Selection under the strict total order of [`better`] is
/// *exact* — no float arithmetic is reassociated — so the result equals
/// [`top_k`] element-for-element and bit-for-bit at every thread count.
pub fn par_top_k(scores: &[f32], k: usize) -> Vec<Scored> {
    if k == 0 || scores.len() < PAR_TOPK_MIN || ssdrec_runtime::threads() == 1 {
        return top_k(scores, k);
    }
    let grain = scores.len().div_ceil(16).max(1);
    ssdrec_runtime::parallel_reduce(
        scores.len(),
        grain,
        |s, e| top_k_range(scores, k, s, e),
        |a, b| {
            // Exact sorted merge of two candidate lists, keeping the best k.
            let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
            let (mut ia, mut ib) = (0, 0);
            while out.len() < k && (ia < a.len() || ib < b.len()) {
                let take_a = match (a.get(ia), b.get(ib)) {
                    (Some(&x), Some(&y)) => better(x, y),
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_a {
                    out.push(a[ia]);
                    ia += 1;
                } else {
                    out.push(b[ib]);
                    ib += 1;
                }
            }
            out
        },
    )
    .unwrap_or_default()
}

/// Rank many evaluation rows at once: `flat` is a row-major `B×width` score
/// matrix and `targets[r]` the held-out item of row `r`. Rows are ranked on
/// the [`ssdrec_runtime`] pool — each output slot is written by exactly one
/// chunk, so the result is identical to mapping [`full_rank`] sequentially.
pub fn rank_rows(flat: &[f32], width: usize, targets: &[usize]) -> Vec<usize> {
    let rows = targets.len();
    assert_eq!(flat.len(), rows * width, "rank_rows shape mismatch");
    let mut ranks = vec![0usize; rows];
    let grain = rows.div_ceil(32).max(1);
    ssdrec_runtime::parallel_chunks_mut(&mut ranks, grain, |ci, block| {
        let r0 = ci * grain;
        for (j, slot) in block.iter_mut().enumerate() {
            let r = r0 + j;
            *slot = full_rank(&flat[r * width..(r + 1) * width], targets[r]);
        }
    });
    ranks
}

/// Accumulates ranking metrics over many evaluation examples.
#[derive(Clone, Debug, Default)]
pub struct RankingAccumulator {
    ranks: Vec<usize>,
}

impl RankingAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one example given full-catalogue `scores` and the true item.
    pub fn push_scores(&mut self, scores: &[f32], target: usize) {
        self.ranks.push(full_rank(scores, target));
    }

    /// Record one example given a precomputed rank (1-based).
    pub fn push_rank(&mut self, rank: usize) {
        assert!(rank >= 1, "ranks are 1-based");
        self.ranks.push(rank);
    }

    /// Number of examples recorded.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Hit Ratio @ K: fraction of examples ranked within the top K.
    pub fn hr(&self, k: usize) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let hits = self.ranks.iter().filter(|&&r| r <= k).count();
        hits as f64 / self.ranks.len() as f64
    }

    /// NDCG @ K: `1 / log2(rank + 1)` for hits, 0 otherwise (single target,
    /// so IDCG = 1).
    pub fn ndcg(&self, k: usize) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .ranks
            .iter()
            .map(|&r| {
                if r <= k {
                    1.0 / ((r as f64) + 1.0).log2()
                } else {
                    0.0
                }
            })
            .sum();
        sum / self.ranks.len() as f64
    }

    /// MRR @ K: reciprocal rank for hits, 0 otherwise.
    pub fn mrr(&self, k: usize) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .ranks
            .iter()
            .map(|&r| if r <= k { 1.0 / r as f64 } else { 0.0 })
            .sum();
        sum / self.ranks.len() as f64
    }

    /// The raw recorded ranks (1-based), in insertion order.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The paper's standard report: HR@{5,10,20}, NDCG@{5,10,20}, MRR@20.
    pub fn report(&self) -> MetricReport {
        MetricReport {
            hr5: self.hr(5),
            hr10: self.hr(10),
            hr20: self.hr(20),
            ndcg5: self.ndcg(5),
            ndcg10: self.ndcg(10),
            ndcg20: self.ndcg(20),
            mrr20: self.mrr(20),
        }
    }
}

/// The seven-metric row used throughout the paper's tables.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricReport {
    /// Hit ratio at 5.
    pub hr5: f64,
    /// Hit ratio at 10.
    pub hr10: f64,
    /// Hit ratio at 20.
    pub hr20: f64,
    /// NDCG at 5.
    pub ndcg5: f64,
    /// NDCG at 10.
    pub ndcg10: f64,
    /// NDCG at 20.
    pub ndcg20: f64,
    /// MRR at 20.
    pub mrr20: f64,
}

impl MetricReport {
    /// Mean relative improvement of `self` over `base` across all seven
    /// metrics, as a percentage (the paper's "Improvement" rows).
    pub fn improvement_over(&self, base: &MetricReport) -> f64 {
        let pairs = [
            (self.hr5, base.hr5),
            (self.hr10, base.hr10),
            (self.hr20, base.hr20),
            (self.ndcg5, base.ndcg5),
            (self.ndcg10, base.ndcg10),
            (self.ndcg20, base.ndcg20),
            (self.mrr20, base.mrr20),
        ];
        let mut total = 0.0;
        let mut n = 0usize;
        for (a, b) in pairs {
            if b > 0.0 {
                total += (a - b) / b * 100.0;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

impl std::fmt::Display for MetricReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HR@5 {:.4}  HR@10 {:.4}  HR@20 {:.4}  N@5 {:.4}  N@10 {:.4}  N@20 {:.4}  MRR {:.4}",
            self.hr5, self.hr10, self.hr20, self.ndcg5, self.ndcg10, self.ndcg20, self.mrr20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rank_basics() {
        // scores for items 1..=4 (index 0 = pad)
        let scores = [0.0, 0.9, 0.5, 0.7, 0.1];
        assert_eq!(full_rank(&scores, 1), 1);
        assert_eq!(full_rank(&scores, 3), 2);
        assert_eq!(full_rank(&scores, 2), 3);
        assert_eq!(full_rank(&scores, 4), 4);
    }

    #[test]
    fn full_rank_tie_is_pessimistic() {
        let scores = [0.0, 0.5, 0.5, 0.5];
        assert_eq!(full_rank(&scores, 3), 3);
        assert_eq!(full_rank(&scores, 1), 1);
    }

    #[test]
    fn top_k_orders_and_skips_pad() {
        let scores = [9.0, 0.9, 0.5, 0.7, 0.1];
        assert_eq!(top_k(&scores, 3), vec![(1, 0.9), (3, 0.7), (2, 0.5)]);
        assert_eq!(top_k(&scores, 0), vec![]);
        assert_eq!(top_k(&scores, 100).len(), 4, "k clamps to catalogue");
    }

    #[test]
    fn top_k_ties_break_to_lower_id() {
        let scores = [0.0, 0.5, 0.7, 0.5, 0.5];
        assert_eq!(top_k(&scores, 3), vec![(2, 0.7), (1, 0.5), (3, 0.5)]);
    }

    #[test]
    fn top_k_positions_agree_with_full_rank() {
        let scores = [0.0, 0.3, 0.3, 0.9, -0.2, 0.3, 0.9];
        for (p, (item, _)) in top_k(&scores, 6).into_iter().enumerate() {
            assert_eq!(full_rank(&scores, item), p + 1, "item {item}");
        }
    }

    #[test]
    fn top_k_sparse_on_full_catalogue_matches_top_k() {
        let scores = [9.0, 0.3, 0.3, 0.9, -0.2, 0.3, 0.9];
        let pairs: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        for k in [0, 1, 3, 6, 10] {
            assert_eq!(top_k_sparse(pairs.clone(), k), top_k(&scores, k));
        }
    }

    #[test]
    fn top_k_sparse_subset_ties_break_to_lower_id() {
        // duplicate scores across a sparse subset: pessimistic rule holds
        let cands = vec![(7usize, 0.5f32), (2, 0.5), (9, 0.8), (4, 0.5)];
        assert_eq!(top_k_sparse(cands, 3), vec![(9, 0.8), (2, 0.5), (4, 0.5)]);
    }

    #[test]
    fn top_k_sparse_skips_pad_id() {
        let cands = vec![(0usize, 99.0f32), (1, 0.1)];
        assert_eq!(top_k_sparse(cands, 2), vec![(1, 0.1)]);
    }

    #[test]
    fn hr_counts_hits() {
        let mut acc = RankingAccumulator::new();
        acc.push_rank(1);
        acc.push_rank(5);
        acc.push_rank(11);
        acc.push_rank(30);
        assert!((acc.hr(5) - 0.5).abs() < 1e-12);
        assert!((acc.hr(10) - 0.5).abs() < 1e-12);
        assert!((acc.hr(20) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ndcg_discounts_by_rank() {
        let mut acc = RankingAccumulator::new();
        acc.push_rank(1);
        assert!((acc.ndcg(10) - 1.0).abs() < 1e-12);
        let mut acc2 = RankingAccumulator::new();
        acc2.push_rank(2);
        assert!((acc2.ndcg(10) - 1.0 / 3f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn mrr_is_reciprocal() {
        let mut acc = RankingAccumulator::new();
        acc.push_rank(4);
        assert!((acc.mrr(20) - 0.25).abs() < 1e-12);
        assert_eq!(acc.mrr(3), 0.0);
    }

    #[test]
    fn metric_ordering_invariants() {
        // HR and NDCG are monotone in K; HR ≥ NDCG ≥ MRR at equal K.
        let mut acc = RankingAccumulator::new();
        for r in [1, 2, 3, 7, 9, 15, 40, 2, 6] {
            acc.push_rank(r);
        }
        assert!(acc.hr(5) <= acc.hr(10));
        assert!(acc.hr(10) <= acc.hr(20));
        assert!(acc.ndcg(20) <= acc.hr(20) + 1e-12);
        assert!(acc.mrr(20) <= acc.ndcg(20) + 1e-12);
    }

    #[test]
    fn improvement_is_percentage() {
        let base = MetricReport {
            hr5: 0.1,
            hr10: 0.2,
            hr20: 0.4,
            ndcg5: 0.05,
            ndcg10: 0.1,
            ndcg20: 0.2,
            mrr20: 0.1,
        };
        let better = MetricReport {
            hr5: 0.2,
            hr10: 0.4,
            hr20: 0.8,
            ndcg5: 0.1,
            ndcg10: 0.2,
            ndcg20: 0.4,
            mrr20: 0.2,
        };
        assert!((better.improvement_over(&base) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scores_path_matches_rank_path() {
        let scores = [0.0, 0.3, 0.9, 0.1];
        let mut a = RankingAccumulator::new();
        a.push_scores(&scores, 1);
        let mut b = RankingAccumulator::new();
        b.push_rank(full_rank(&scores, 1));
        assert_eq!(a.hr(2), b.hr(2));
    }
}
