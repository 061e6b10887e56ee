//! Deterministic HNSW candidate retrieval over the frozen item table.
//!
//! **Retired from the product:** no workspace crate links this one and
//! serving is exact only (DESIGN.md §5.6). It stays a workspace member only
//! while `benchmark/probes`' `probe_ann` path-depends on it.
//!
//! Serving full-rank-scores every item per request — `O(items)` per user —
//! which stops scaling somewhere between a 100K- and a 1M-item catalogue.
//! This crate provides the approximate stage of the two-stage retrieval
//! pipeline: an HNSW graph built once over the `(V+1)×d` item embedding
//! matrix answers "give me the `ef_search` most promising items" per
//! request, and the caller re-ranks only that candidate set through the
//! exact frozen scorer ([`rerank_score`]) before the shared bounded-heap
//! top-K selection.
//!
//! ## Determinism contract
//!
//! The index is a pure function of `(table bytes, AnnParams)` — independent
//! of thread count, build repetition, and platform allocator state:
//!
//! - **Level assignment** draws every node's level upfront, in ascending id
//!   order, from a single [`ssdrec_testkit::Rng`] stream seeded with
//!   [`AnnParams::seed`]. No draw happens during graph construction.
//! - **Batched insertion.** Nodes are inserted in ascending id order in
//!   fixed-size batches of [`AnnParams::batch`]. Within a batch every
//!   node's candidate search runs read-only against the frozen pre-batch
//!   graph (this is the parallel phase — any thread assignment computes
//!   the same candidate lists), then edges are committed sequentially in
//!   ascending id order. Nodes of the same batch see each other through an
//!   exact brute-force pass over the batch prefix at commit time, so the
//!   first batch (empty pre-graph) degenerates to brute force.
//! - **Total ordering.** All heaps and frontiers order by
//!   `(score descending, id ascending)` via a monotone integer encoding of
//!   the f32 score ([`skey`]) — float ties always break to the lower item
//!   id, matching the pessimistic rule of `ssdrec_metrics::top_k`.
//! - **Sorted neighbour lists.** Every adjacency list is stored sorted by
//!   ascending id; [`HnswIndex::to_bytes`] serialises the whole index so
//!   tests can assert byte-identity across builds and thread counts.
//!
//! ## Similarity
//!
//! The serving scorer is a tied-weight inner product (`h_S · Eᵀ` plus a pad
//! mask), so the index searches by **maximum inner product**, not Euclidean
//! distance. [`dot_zskip`] replicates the workspace gemm kernel's
//! accumulation exactly (ascending-`p` adds, zero-skip on the query
//! element), and [`rerank_score`] appends the pad-mask `+ 0.0` — candidate
//! scores are therefore bit-identical to the corresponding entries of the
//! full `B×(V+1)` score row the exact path computes.

use std::collections::{BTreeSet, HashSet};

use ssdrec_testkit::Rng;

/// Hard cap on HNSW levels (level 15 at `m = 16` has probability ~1e-18).
const MAX_LEVEL: u8 = 15;

/// Build-time knobs. The index bytes are a pure function of the table and
/// this struct, so every field is part of the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnParams {
    /// Max out-degree per node on layers ≥ 1; layer 0 keeps `2·m` links.
    pub m: usize,
    /// Beam width of the candidate search during construction.
    pub ef_construction: usize,
    /// Seed of the level-assignment RNG stream.
    pub seed: u64,
    /// Insertion batch size. Searches within a batch run against the frozen
    /// pre-batch graph, so this value changes the built graph (it is a
    /// quality/parallelism knob, not a free parameter).
    pub batch: usize,
}

impl Default for AnnParams {
    fn default() -> Self {
        AnnParams {
            m: 16,
            ef_construction: 96,
            seed: 0x0A11_5EED,
            batch: 64,
        }
    }
}

/// Why an index build failed (bad inputs or an injected `ann.build` fault).
/// Construction is all-or-nothing: on `Err` no partial index escapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ann build failed: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Monotone map from f32 to u32: `a < b` (IEEE order) ⇔ `skey(a) < skey(b)`.
/// Total — NaNs land at the extremes, `-0.0 < +0.0` — so every ordering
/// decision in the index is an integer compare.
#[inline]
fn skey(s: f32) -> u32 {
    let b = s.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

#[inline]
fn skey_inv(k: u32) -> f32 {
    if k & 0x8000_0000 != 0 {
        f32::from_bits(k & 0x7fff_ffff)
    } else {
        f32::from_bits(!k)
    }
}

/// Best-first key: ascending order = (score descending, id ascending).
#[inline]
fn key_best(score: f32, id: u32) -> u64 {
    ((!skey(score) as u64) << 32) | id as u64
}

#[inline]
fn decode_best(k: u64) -> (u32, f32) {
    ((k & 0xffff_ffff) as u32, skey_inv(!((k >> 32) as u32)))
}

/// Worst-first key: ascending order = (score ascending, id descending) —
/// `set.first()` is the entry the pessimistic rule evicts first.
#[inline]
fn key_worst(score: f32, id: u32) -> u64 {
    ((skey(score) as u64) << 32) | (!id) as u64
}

#[inline]
fn decode_worst(k: u64) -> (u32, f32) {
    (!((k & 0xffff_ffff) as u32), skey_inv((k >> 32) as u32))
}

/// Inner product replicating the workspace gemm kernel bit-for-bit: adds run
/// over ascending `p` and terms whose **query** element is `±0.0` are
/// skipped, exactly like the `nn` gemm variant the frozen scorer uses
/// (the oracle gemm in `crates/tensor/tests/oracle/mod.rs`).
#[inline]
pub fn dot_zskip(q: &[f32], v: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&a, &b) in q.iter().zip(v.iter()) {
        if a == 0.0 {
            continue;
        }
        acc += a * b;
    }
    acc
}

/// The exact re-rank score of one candidate: the gemm-parity dot plus the
/// pad-mask add the exact path applies via `add_bcast` (the mask entry is
/// `0.0` for every real item; the explicit `+ 0.0` normalises `-0.0` the
/// same way the kernel does). Bit-identical to the candidate's entry in the
/// full score row.
#[inline]
pub fn rerank_score(q: &[f32], v: &[f32]) -> f32 {
    dot_zskip(q, v) + 0.0
}

/// One node's planned edges for a layer (computed in the read-only parallel
/// phase of a batch, consumed by the sequential commit).
#[derive(Clone, Default)]
struct NodePlan {
    /// `per_layer[l]` = candidate `(id, score)` list for layer `l`,
    /// best-first. Layers above the pre-batch entry level are empty.
    per_layer: Vec<Vec<(u32, f32)>>,
}

/// A deterministic HNSW index over item ids `1..=count` (row 0 of the table
/// is the pad embedding and never indexed).
pub struct HnswIndex {
    dim: usize,
    count: usize,
    params: AnnParams,
    /// Owned copy of the `(count+1)×dim` table.
    vecs: Vec<f32>,
    /// Per-id top level (index 0 unused).
    levels: Vec<u8>,
    /// `links[id][layer]`, each list sorted by ascending id.
    links: Vec<Vec<Vec<u32>>>,
    /// Entry node (highest level, ties to the lowest id); 0 iff `count == 0`.
    entry: u32,
}

impl HnswIndex {
    /// Build the index over `table` (`(count+1)×dim`, row-major, row 0 =
    /// pad). All-or-nothing: an injected `ann.build` fault or invalid input
    /// returns `Err` and no partial index.
    pub fn build(
        table: &[f32],
        dim: usize,
        count: usize,
        params: AnnParams,
    ) -> Result<HnswIndex, BuildError> {
        if dim == 0 {
            return Err(BuildError("dim must be ≥ 1".into()));
        }
        if table.len() != (count + 1) * dim {
            return Err(BuildError(format!(
                "table has {} values, want (count+1)·dim = {}",
                table.len(),
                (count + 1) * dim
            )));
        }
        if params.m < 2 {
            return Err(BuildError("m must be ≥ 2".into()));
        }
        if params.ef_construction == 0 || params.batch == 0 {
            return Err(BuildError("ef_construction and batch must be ≥ 1".into()));
        }

        // Phase 0: every level, upfront, from one seeded stream in id order.
        let ml = 1.0 / (params.m as f64).ln();
        let mut rng = Rng::seed(params.seed);
        let mut levels = vec![0u8; count + 1];
        for l in levels.iter_mut().skip(1) {
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            *l = ((-u.ln() * ml) as u64).min(MAX_LEVEL as u64) as u8;
        }

        let mut idx = HnswIndex {
            dim,
            count,
            params,
            vecs: table.to_vec(),
            links: levels
                .iter()
                .map(|&l| vec![Vec::new(); l as usize + 1])
                .collect(),
            levels,
            entry: 0,
        };

        // Batched insertion: parallel read-only search, sequential commit.
        let mut id = 1usize;
        while id <= count {
            ssdrec_faults::point("ann.build")
                .map_err(|_| BuildError("injected fault at ann.build".into()))?;
            let hi = (id + params.batch - 1).min(count);
            let mut plans: Vec<NodePlan> = vec![NodePlan::default(); hi - id + 1];
            let base = id;
            ssdrec_runtime::parallel_chunks_mut(&mut plans, 1, |ci, chunk| {
                chunk[0] = idx.plan_insert((base + ci) as u32);
            });
            for (off, plan) in plans.into_iter().enumerate() {
                idx.commit_insert((id + off) as u32, base as u32, plan);
            }
            id = hi + 1;
        }
        Ok(idx)
    }

    /// Catalogue size the index was built over.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build parameters (part of the determinism contract).
    pub fn params(&self) -> AnnParams {
        self.params
    }

    #[inline]
    fn vec_of(&self, id: u32) -> &[f32] {
        let i = id as usize * self.dim;
        &self.vecs[i..i + self.dim]
    }

    #[inline]
    fn score(&self, q: &[f32], id: u32) -> f32 {
        dot_zskip(q, self.vec_of(id))
    }

    /// Max out-degree at `layer`.
    #[inline]
    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// Greedy hill-climb at `layer`: move to the best neighbour while one
    /// strictly improves on `(score desc, id asc)`.
    fn greedy(&self, q: &[f32], mut ep: u32, layer: usize) -> u32 {
        let mut best = key_best(self.score(q, ep), ep);
        loop {
            let mut improved = false;
            for &nb in &self.links[ep as usize][layer] {
                let k = key_best(self.score(q, nb), nb);
                if k < best {
                    best = k;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
            ep = decode_best(best).0;
        }
    }

    /// Beam search at `layer`: the `ef` best nodes reachable from `ep`,
    /// best-first. Fully deterministic: both the frontier and the result
    /// set are ordered sets over the integer score keys.
    fn search_layer(&self, q: &[f32], ep: u32, ef: usize, layer: usize) -> Vec<(u32, f32)> {
        let eps = self.score(q, ep);
        let mut visited: HashSet<u32> = HashSet::new();
        visited.insert(ep);
        let mut frontier: BTreeSet<u64> = BTreeSet::new();
        frontier.insert(key_best(eps, ep));
        let mut results: BTreeSet<u64> = BTreeSet::new();
        results.insert(key_worst(eps, ep));

        while let Some(&ck) = frontier.first() {
            frontier.remove(&ck);
            let (cid, cscore) = decode_best(ck);
            let worst = *results.first().expect("results never empty");
            if results.len() >= ef && key_worst(cscore, cid) < worst {
                break; // best frontier entry can no longer enter the result set
            }
            for &nb in &self.links[cid as usize][layer] {
                if !visited.insert(nb) {
                    continue;
                }
                let s = self.score(q, nb);
                if results.len() < ef || key_worst(s, nb) > *results.first().expect("non-empty") {
                    frontier.insert(key_best(s, nb));
                    results.insert(key_worst(s, nb));
                    if results.len() > ef {
                        results.pop_first();
                    }
                }
            }
        }
        results.iter().rev().map(|&k| decode_worst(k)).collect()
    }

    /// HNSW neighbour-selection heuristic under inner-product similarity,
    /// deterministic: candidates are processed best-first and kept iff they
    /// are closer to the query than to any already-kept neighbour
    /// (`dot(c, q) > dot(c, kept)` for all kept); rejected candidates fill
    /// remaining slots in order so connectivity never drops below
    /// `min(max_deg, candidates)`.
    fn select_neighbors(&self, cands: &[(u32, f32)], max_deg: usize) -> Vec<u32> {
        let mut order: Vec<u64> = cands.iter().map(|&(id, s)| key_best(s, id)).collect();
        order.sort_unstable();
        let mut kept: Vec<(u32, f32)> = Vec::with_capacity(max_deg);
        let mut rejected: Vec<u32> = Vec::new();
        for &k in &order {
            if kept.len() >= max_deg {
                break;
            }
            let (id, s) = decode_best(k);
            let q_sim = s;
            let shadowed = kept
                .iter()
                .any(|&(kid, _)| self.score(self.vec_of(id), kid) >= q_sim);
            if shadowed {
                rejected.push(id);
            } else {
                kept.push((id, s));
            }
        }
        let mut out: Vec<u32> = kept.into_iter().map(|(id, _)| id).collect();
        for id in rejected {
            if out.len() >= max_deg {
                break;
            }
            out.push(id);
        }
        out.sort_unstable();
        out
    }

    /// Parallel phase of one insertion: candidate lists for every layer of
    /// `id`, searched read-only against the pre-batch graph.
    fn plan_insert(&self, id: u32) -> NodePlan {
        let lq = self.levels[id as usize] as usize;
        let mut plan = NodePlan {
            per_layer: vec![Vec::new(); lq + 1],
        };
        if self.entry == 0 {
            return plan; // empty pre-graph: the commit's prefix pass links the batch
        }
        let q = self.vec_of(id);
        let el = self.levels[self.entry as usize] as usize;
        let mut ep = self.entry;
        let mut l = el;
        while l > lq {
            ep = self.greedy(q, ep, l);
            l -= 1;
        }
        loop {
            let cands = self.search_layer(q, ep, self.params.ef_construction, l);
            ep = cands.first().map(|&(i, _)| i).unwrap_or(ep);
            plan.per_layer[l] = cands;
            if l == 0 {
                break;
            }
            l -= 1;
        }
        plan
    }

    /// Sequential phase: link `id` into the graph. `batch_base` is the first
    /// id of the current batch — earlier batch members (already committed)
    /// are brute-force candidates, since the parallel search could not see
    /// them.
    fn commit_insert(&mut self, id: u32, batch_base: u32, plan: NodePlan) {
        let lq = self.levels[id as usize] as usize;
        for l in (0..=lq).rev() {
            let mut cands = plan.per_layer.get(l).cloned().unwrap_or_default();
            for j in batch_base..id {
                if self.levels[j as usize] as usize >= l {
                    cands.push((j, self.score(self.vec_of(id), j)));
                }
            }
            if cands.is_empty() {
                continue;
            }
            let selected = self.select_neighbors(&cands, self.max_degree(l));
            for &nb in &selected {
                self.add_link(nb, id, l);
            }
            self.links[id as usize][l] = selected;
        }
        let cur = self.entry;
        if cur == 0 || self.levels[id as usize] > self.levels[cur as usize] {
            self.entry = id;
        }
    }

    /// Append the back-edge `from → to`, re-selecting `from`'s neighbour
    /// list when it overflows the layer's degree bound.
    fn add_link(&mut self, from: u32, to: u32, layer: usize) {
        let max_deg = self.max_degree(layer);
        let list = &mut self.links[from as usize][layer];
        match list.binary_search(&to) {
            Ok(_) => return,
            Err(pos) => list.insert(pos, to),
        }
        if list.len() > max_deg {
            let fv: Vec<(u32, f32)> = {
                let q = self.vec_of(from);
                self.links[from as usize][layer]
                    .iter()
                    .map(|&nb| (nb, dot_zskip(q, self.vec_of(nb))))
                    .collect()
            };
            let pruned = self.select_neighbors(&fv, max_deg);
            self.links[from as usize][layer] = pruned;
        }
    }

    /// The candidate set for query `q`: ids of the `ef` best reachable
    /// items, **sorted ascending** (canonical order for the exact re-rank).
    /// When `ef ≥ count` the search degenerates to the full catalogue —
    /// retrieval is exhaustive by construction, which is what the parity
    /// smoke and the `recall == 1.0` property rely on.
    pub fn candidates(&self, q: &[f32], ef: usize) -> Vec<u32> {
        assert_eq!(q.len(), self.dim, "query width must match the table");
        if self.count == 0 || ef == 0 {
            return Vec::new();
        }
        if ef >= self.count {
            return (1..=self.count as u32).collect();
        }
        let mut ep = self.entry;
        let q_ref = q;
        for l in (1..=self.levels[self.entry as usize] as usize).rev() {
            ep = self.greedy(q_ref, ep, l);
        }
        let mut ids: Vec<u32> = self
            .search_layer(q_ref, ep, ef, 0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Canonical serialisation: every field that defines the index, in a
    /// fixed order. Two builds are interchangeable iff their bytes match.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"ANN1");
        for v in [
            self.dim as u64,
            self.count as u64,
            self.params.m as u64,
            self.params.ef_construction as u64,
            self.params.seed,
            self.params.batch as u64,
            self.entry as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.levels[1..]);
        for id in 1..=self.count {
            for layer in &self.links[id] {
                out.extend_from_slice(&(layer.len() as u32).to_le_bytes());
                for &nb in layer {
                    out.extend_from_slice(&nb.to_le_bytes());
                }
            }
        }
        out
    }

    /// Total directed edges at layer 0 (diagnostics).
    pub fn edges(&self) -> usize {
        (1..=self.count).map(|id| self.links[id][0].len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table(count: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed(seed);
        let mut t = vec![0.0f32; (count + 1) * dim];
        for v in t.iter_mut().skip(dim) {
            *v = rng.next_f32() * 2.0 - 1.0;
        }
        t
    }

    #[test]
    fn skey_is_monotone_and_invertible() {
        let vals = [-f32::INFINITY, -3.5, -0.0, 0.0, 1.0e-9, 2.5, f32::INFINITY];
        for w in vals.windows(2) {
            assert!(skey(w[0]) <= skey(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &v in &vals {
            assert_eq!(skey_inv(skey(v)).to_bits(), v.to_bits());
        }
        assert!(skey(-0.0) < skey(0.0), "total order separates signed zero");
    }

    #[test]
    fn key_best_breaks_ties_to_lower_id() {
        assert!(key_best(1.0, 3) < key_best(1.0, 7));
        assert!(key_best(2.0, 9) < key_best(1.0, 1));
        // worst-first: same score → higher id is evicted first
        assert!(key_worst(1.0, 7) < key_worst(1.0, 3));
    }

    #[test]
    fn dot_zskip_matches_plain_dot_without_zeros() {
        let a = [0.5f32, -1.25, 2.0];
        let b = [1.0f32, 3.0, -0.5];
        let want: f32 = 0.5 * 1.0 + (-1.25) * 3.0 + 2.0 * (-0.5);
        assert_eq!(dot_zskip(&a, &b).to_bits(), want.to_bits());
        // query-side zero skipped even against inf
        let a0 = [0.0f32, 1.0];
        let binf = [f32::INFINITY, 2.0];
        assert_eq!(dot_zskip(&a0, &binf), 2.0);
    }

    #[test]
    fn build_rejects_bad_shapes() {
        assert!(HnswIndex::build(&[0.0; 4], 0, 1, AnnParams::default()).is_err());
        assert!(HnswIndex::build(&[0.0; 5], 2, 2, AnnParams::default()).is_err());
        let bad_m = AnnParams {
            m: 1,
            ..AnnParams::default()
        };
        assert!(HnswIndex::build(&[0.0; 6], 2, 2, bad_m).is_err());
    }

    #[test]
    fn neighbour_lists_are_sorted_and_bounded() {
        let dim = 8;
        let n = 300;
        let t = toy_table(n, dim, 11);
        let idx = HnswIndex::build(&t, dim, n, AnnParams::default()).expect("build");
        for id in 1..=n {
            for (l, list) in idx.links[id].iter().enumerate() {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                assert!(list.len() <= idx.max_degree(l), "degree bound at {l}");
                assert!(list.iter().all(|&nb| nb as usize != id), "no self-links");
            }
        }
        assert!(idx.entry != 0);
    }

    #[test]
    fn exhaustive_ef_returns_whole_catalogue() {
        let dim = 4;
        let n = 50;
        let t = toy_table(n, dim, 3);
        let idx = HnswIndex::build(&t, dim, n, AnnParams::default()).expect("build");
        let q = vec![0.25f32; dim];
        let ids = idx.candidates(&q, n);
        assert_eq!(ids, (1..=n as u32).collect::<Vec<_>>());
        assert_eq!(idx.candidates(&q, 0), Vec::<u32>::new());
    }

    #[test]
    fn candidates_are_sorted_unique_and_at_most_ef() {
        let dim = 8;
        let n = 400;
        let t = toy_table(n, dim, 17);
        let idx = HnswIndex::build(&t, dim, n, AnnParams::default()).expect("build");
        let mut rng = Rng::seed(9);
        for _ in 0..10 {
            let q: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
            let ids = idx.candidates(&q, 32);
            assert!(ids.len() <= 32);
            assert!(!ids.is_empty());
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert!(ids.iter().all(|&i| i >= 1 && i <= n as u32));
        }
    }

    #[test]
    fn rebuild_is_byte_identical() {
        let dim = 6;
        let n = 257; // not a multiple of the batch size
        let t = toy_table(n, dim, 23);
        let a = HnswIndex::build(&t, dim, n, AnnParams::default()).expect("a");
        let b = HnswIndex::build(&t, dim, n, AnnParams::default()).expect("b");
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
