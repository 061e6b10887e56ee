//! Construction of the multi-relation graph `G` (paper §III-A).
//!
//! Five relation types are built in a fully data-driven way from raw
//! sequences, exactly following the paper's definitions:
//!
//! * **interacted** user–item edges weighted by interaction counts (`A`),
//! * **transitional** (directed) item edges weighted by
//!   `Σ_u (n_u − Dis(v_i, v_j)) / n_u` over sequences containing `v_i` before
//!   `v_j`,
//! * **incompatible** (undirected) item edges between *popular* items that
//!   never co-transit but share transitional context,
//! * **similar** user edges weighted by a Jaccard-style overlap of
//!   interaction mass,
//! * **dissimilar** user edges between users who never co-interact yet share
//!   a similar user.

use std::cmp::Ordering;

use ssdrec_data::{Dataset, SequenceStore};

use crate::csr::{keep_heaviest, prefix_offsets, Csr};

/// Knobs for graph construction. Defaults follow the paper's implementation
/// details (few-shot ratios 0.9 users / 0.8 items via the 20/80 principle).
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Fraction of items regarded as few-shot (long-tail); the complement is
    /// "popular" and eligible for incompatible relations. Paper: 0.8.
    pub item_fewshot_ratio: f64,
    /// Fraction of users regarded as few-shot. Paper: 0.9.
    pub user_fewshot_ratio: f64,
    /// Keep only the `k` heaviest neighbours per node and relation
    /// (tractability cap; the encoder aggregates linearly in edge count).
    pub max_neighbors: usize,
    /// Limit on the positional distance considered for transitional pairs
    /// (`usize::MAX` = the paper's all-pairs definition).
    pub max_transition_distance: usize,
    /// Cap on the popular-item list per transitional context when pairing
    /// incompatible candidates. Pairing is quadratic per context;
    /// `usize::MAX` (the default) keeps the paper's exact definition —
    /// finite values exist for corpus-scale builds (`ssdrec-bench data-scale`).
    pub max_context_items: usize,
    /// Cap on the per-item user list when enumerating similar-user pairs
    /// (quadratic per item). `usize::MAX` = the paper's exact definition.
    pub max_item_users: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            item_fewshot_ratio: 0.8,
            user_fewshot_ratio: 0.9,
            max_neighbors: 32,
            max_transition_distance: usize::MAX,
            max_context_items: usize::MAX,
            max_item_users: usize::MAX,
        }
    }
}

/// The multi-relation graph `G = (N, E)` with all five edge sets in CSR form.
///
/// Item nodes are indexed by item ID (index 0 = padding, always isolated);
/// user nodes by user ID.
#[derive(Clone, Debug)]
pub struct MultiRelationGraph {
    /// Number of users.
    pub num_users: usize,
    /// Number of items (nodes `1..=num_items`).
    pub num_items: usize,
    /// `E_uv`: user → interacted items, weighted by interaction count.
    pub user_item: Csr,
    /// `E_uv` transposed: item → interacting users.
    pub item_user: Csr,
    /// `E⁺_vv` outgoing: `v → {v_j : v before v_j}`.
    pub trans_out: Csr,
    /// `E⁺_vv` incoming: `v → {v_i : v_i before v}`.
    pub trans_in: Csr,
    /// `E⁻_vv`: undirected incompatible item edges.
    pub incompatible: Csr,
    /// `E⁺_uu`: undirected similar user edges.
    pub similar: Csr,
    /// `E⁻_uu`: undirected dissimilar user edges.
    pub dissimilar: Csr,
    /// Per-item popularity flags used for incompatible eligibility.
    pub item_popular: Vec<bool>,
}

impl MultiRelationGraph {
    /// Data-driven context-coherence score per position of a sequence: the
    /// mean symmetric transitional weight between the item and its context
    /// within `window` positions, minus the mean incompatible weight.
    ///
    /// This is the graph acting as *prior knowledge* (paper §III-A): an
    /// accidental interaction has (almost) no transitional relations to its
    /// neighbours, so its coherence is low; incompatible items are actively
    /// penalised. Scores are clamped at zero.
    pub fn sequence_coherence(&self, seq: &[usize], window: usize) -> Vec<f32> {
        let n = seq.len();
        seq.iter()
            .enumerate()
            .map(|(t, &it)| {
                let mut s = 0.0f32;
                let mut cnt = 0.0f32;
                let lo = t.saturating_sub(window);
                let hi = (t + window).min(n.saturating_sub(1));
                for (j, &other) in seq.iter().enumerate().take(hi + 1).skip(lo) {
                    if j == t {
                        continue;
                    }
                    s += self.trans_out.weight(it, other).unwrap_or(0.0)
                        + self.trans_out.weight(other, it).unwrap_or(0.0);
                    s -= self.incompatible.weight(it, other).unwrap_or(0.0);
                    cnt += 1.0;
                }
                if cnt > 0.0 {
                    (s / cnt).max(0.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Total edge count across every relation (diagnostics).
    pub fn total_edges(&self) -> usize {
        self.user_item.num_edges()
            + self.item_user.num_edges()
            + self.trans_out.num_edges()
            + self.trans_in.num_edges()
            + self.incompatible.num_edges()
            + self.similar.num_edges()
            + self.dissimilar.num_edges()
    }
}

fn popular_flags(freq: &[usize], fewshot_ratio: f64) -> Vec<bool> {
    // Nodes above the (fewshot_ratio)-quantile of frequency are popular.
    let mut nonzero: Vec<usize> = freq.iter().copied().filter(|&f| f > 0).collect();
    if nonzero.is_empty() {
        return vec![false; freq.len()];
    }
    nonzero.sort_unstable();
    let idx = ((nonzero.len() as f64 * fewshot_ratio) as usize).min(nonzero.len() - 1);
    let threshold = nonzero[idx];
    freq.iter()
        .map(|&f| f > 0 && f >= threshold.max(1))
        .collect()
}

/// Rows per block of [`par_rows`] never drop below this, so small graphs
/// do not pay a dispatch per handful of rows.
const MIN_BLOCK_ROWS: usize = 16;
/// [`par_rows`] cuts a relation into at most this many blocks.
const MAX_BLOCKS: usize = 256;

/// Build the rows `0..n` of a relation over the global pool: `fill(i,
/// scratch, out)` appends row `i` to `out`. Block bounds derive from `n`
/// alone (DESIGN §4.1 rule 1); each block gets a fresh `scratch()` and an
/// output of its own, and the blocks are joined in order, so the result is
/// the same at every thread count.
fn par_rows<S>(
    n: usize,
    scratch: impl Fn() -> S + Sync,
    fill: impl Fn(usize, &mut S, &mut Vec<(usize, f32)>) + Sync,
) -> Csr {
    // One block's rows: where each row ends in the block's entries, and the
    // entries.
    type Block = (Vec<usize>, Vec<(usize, f32)>);
    let grain = n.div_ceil(MAX_BLOCKS).max(MIN_BLOCK_ROWS);
    let mut blocks: Vec<Block> = vec![(Vec::new(), Vec::new()); n.div_ceil(grain)];
    ssdrec_runtime::parallel_chunks_mut(&mut blocks, 1, |b, block| {
        let (ends, out) = &mut block[0];
        let mut s = scratch();
        for i in b * grain..((b + 1) * grain).min(n) {
            fill(i, &mut s, out);
            ends.push(out.len());
        }
    });
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut nbrs = Vec::with_capacity(blocks.iter().map(|b| b.1.len()).sum());
    for (ends, out) in blocks {
        let base = nbrs.len();
        offsets.extend(ends.iter().map(|e| base + e));
        nbrs.extend(out);
    }
    Csr::from_parts(offsets, nbrs)
}

/// The pairs of nodes that share a list, as an upper triangle: row `i`
/// holds its partners `j > i`, ascending.
///
/// `lists` rows are id-ascending member lists, each member carrying its
/// weight in that list. Every pair `i < j` listed together in list `k`
/// contributes `w_ik + w_jk`; a pair's contributions are folded in
/// ascending `k`, the first assigned and each later one added — the order
/// in which the historical builder stable-sorted and folded one global
/// contribution stream, so the sums keep their bits. Pairs `keep` rejects
/// are dropped.
fn co_listed(n: usize, lists: &Csr, keep: impl Fn(usize, usize) -> bool + Sync) -> Csr {
    let member_of = lists.transpose(n);
    par_rows(
        n,
        || (vec![0usize; n], vec![0.0f32; n], Vec::new()),
        |i, (seen, acc, touched), out| {
            touched.clear();
            for &(k, w_ik) in member_of.neighbors(i) {
                let list = lists.neighbors(k);
                let after = list.partition_point(|&(j, _)| j <= i);
                for &(j, w_jk) in &list[after..] {
                    let w = w_ik + w_jk;
                    if seen[j] == i + 1 {
                        acc[j] += w;
                    } else {
                        seen[j] = i + 1;
                        acc[j] = w;
                        touched.push(j);
                    }
                }
            }
            touched.sort_unstable();
            out.extend(
                touched
                    .iter()
                    .filter(|&&j| keep(i, j))
                    .map(|&j| (j, acc[j])),
            );
        },
    )
}

/// Row-wise union of two id-ascending relations, the weights of an edge
/// both carry summed.
fn sum_rows(a: &Csr, b: &Csr) -> Csr {
    let mut offsets = Vec::with_capacity(a.num_nodes() + 1);
    offsets.push(0);
    let mut nbrs = Vec::with_capacity(a.num_edges() + b.num_edges());
    for i in 0..a.num_nodes() {
        let (ra, rb) = (a.neighbors(i), b.neighbors(i));
        let (mut x, mut y) = (0, 0);
        loop {
            let next = match (ra.get(x), rb.get(y)) {
                (Some(&(j, w)), Some(&(k, v))) => match j.cmp(&k) {
                    Ordering::Less => {
                        x += 1;
                        (j, w)
                    }
                    Ordering::Greater => {
                        y += 1;
                        (k, v)
                    }
                    Ordering::Equal => {
                        x += 1;
                        y += 1;
                        (j, w + v)
                    }
                },
                (Some(&e), None) => {
                    x += 1;
                    e
                }
                (None, Some(&e)) => {
                    y += 1;
                    e
                }
                (None, None) => break,
            };
            nbrs.push(next);
        }
        offsets.push(nbrs.len());
    }
    Csr::from_parts(offsets, nbrs)
}

/// The items two item-ascending rows share, ascending, with both weights.
fn shared_items<'a>(
    ra: &'a [(usize, f32)],
    rb: &'a [(usize, f32)],
) -> impl Iterator<Item = (usize, f32, f32)> + 'a {
    let (mut x, mut y) = (0, 0);
    std::iter::from_fn(move || {
        while x < ra.len() && y < rb.len() {
            match ra[x].0.cmp(&rb[y].0) {
                Ordering::Less => x += 1,
                Ordering::Greater => y += 1,
                Ordering::Equal => {
                    let shared = (ra[x].0, ra[x].1, rb[y].1);
                    x += 1;
                    y += 1;
                    return Some(shared);
                }
            }
        }
        None
    })
}

/// Build the full multi-relation graph from an in-RAM dataset.
pub fn build_graph(ds: &Dataset, cfg: &GraphConfig) -> MultiRelationGraph {
    build_graph_from_store(ds, cfg)
}

/// Build the full multi-relation graph by counting passes over a
/// [`SequenceStore`] — the out-of-core path.
///
/// Three sequential passes over the store (interaction rows + frequencies,
/// transitional-pair counts, transitional-pair fill) produce the CSR
/// intermediates every later relation derives from. The quadratic
/// relations — incompatible, similar, dissimilar — are then built one
/// destination row at a time over the `ssdrec_runtime` pool, with no global
/// sort; each row adds its weights in the order the historical
/// sort-and-merge builder did, so the graph is **byte-identical** to it on
/// every input and at every thread count (`crates/graph/tests/`:
/// `csr_regression.rs` pins hashes recorded before both rewrites, and
/// `reference_oracle.rs` compares against the sort-and-merge builder kept
/// verbatim).
pub fn build_graph_from_store(store: &dyn SequenceStore, cfg: &GraphConfig) -> MultiRelationGraph {
    let n_items = store.num_items() + 1; // include pad slot 0
    let n_users = store.num_users();

    // --- store pass 1: frequencies + interacted rows (A) ------------------
    // Per-user sorted run-length counts replace the per-user hash map; the
    // counts are small integers, exact in f32 either way.
    let mut freq = vec![0usize; n_items];
    let mut user_freq = vec![0usize; n_users];
    let mut ui_offsets: Vec<usize> = Vec::with_capacity(n_users + 1);
    ui_offsets.push(0);
    let mut ui_nbrs: Vec<(usize, f32)> = Vec::new();
    let mut seq: Vec<usize> = Vec::new();
    let mut scratch: Vec<usize> = Vec::new();
    for u in 0..n_users {
        store.read_seq(u, &mut seq);
        user_freq[u] = seq.len();
        for &it in &seq {
            freq[it] += 1;
        }
        scratch.clear();
        scratch.extend_from_slice(&seq);
        scratch.sort_unstable();
        let mut i = 0;
        while i < scratch.len() {
            let it = scratch[i];
            let mut c = 0usize;
            while i < scratch.len() && scratch[i] == it {
                c += 1;
                i += 1;
            }
            ui_nbrs.push((it, c as f32));
        }
        ui_offsets.push(ui_nbrs.len());
    }
    let ui = Csr::from_parts(ui_offsets, ui_nbrs);
    // item → interacting users, every row user-ascending.
    let iu = ui.transpose(n_items);

    // --- transitional relations (E+_vv) -----------------------------------
    // w+_{ij} = Σ over sequences containing v_i before v_j of (n - Dis)/n.
    // Store pass 2 counts one contribution per ordered pair; pass 3 scatters
    // `(target, w)` into a flat per-source buffer. Contributions land in scan
    // order, so the per-row stable sort + fold reproduces hash-map
    // accumulation.
    let pair_range = |a: usize, n: usize| -> std::ops::Range<usize> {
        let hi = if cfg.max_transition_distance == usize::MAX {
            n
        } else {
            (a + 1 + cfg.max_transition_distance).min(n)
        };
        (a + 1)..hi
    };
    let mut tcnt = vec![0usize; n_items];
    for u in 0..n_users {
        store.read_seq(u, &mut seq);
        let n = seq.len();
        for a in 0..n {
            for b in pair_range(a, n) {
                if seq[a] != seq[b] {
                    tcnt[seq[a]] += 1;
                }
            }
        }
    }
    let tbuf_offs = prefix_offsets(&tcnt);
    // (u32, f32) halves the peak of the dominant intermediate.
    let mut tbuf: Vec<(u32, f32)> = vec![(0, 0.0); tbuf_offs[n_items]];
    let mut cur = tbuf_offs[..n_items].to_vec();
    for u in 0..n_users {
        store.read_seq(u, &mut seq);
        let n = seq.len();
        for a in 0..n {
            for b in pair_range(a, n) {
                if seq[a] == seq[b] {
                    continue;
                }
                let dis = (b - a) as f32;
                let w = (n as f32 - dis) / n as f32;
                tbuf[cur[seq[a]]] = (seq[b] as u32, w);
                cur[seq[a]] += 1;
            }
        }
    }
    let mut trans_offsets: Vec<usize> = Vec::with_capacity(n_items + 1);
    trans_offsets.push(0);
    let mut trans_nbrs: Vec<(usize, f32)> = Vec::new();
    for i in 0..n_items {
        let row = &mut tbuf[tbuf_offs[i]..tbuf_offs[i + 1]];
        row.sort_by_key(|&(j, _)| j); // stable: keeps encounter order per key
        let mut p = 0;
        while p < row.len() {
            let (j, mut acc) = row[p];
            p += 1;
            while p < row.len() && row[p].0 == j {
                acc += row[p].1;
                p += 1;
            }
            trans_nbrs.push((j as usize, acc));
        }
        trans_offsets.push(trans_nbrs.len());
    }
    drop(tbuf);
    let trans = Csr::from_parts(trans_offsets, trans_nbrs);
    let trans_in = trans.transpose(n_items);

    // --- incompatible relations (E-_vv) ------------------------------------
    // Popular items i, j with no transitional edge either way but a common
    // transitional neighbour k; weight Σ_k (mass(i,k) + mass(j,k)), where
    // mass(i,k) = w+_ik + w+_ki. k's context list holds the popular items
    // with mass to k, ascending and capped, each with its mass to k; pairs
    // linked by mass are transitional neighbours and drop out.
    let item_popular = popular_flags(&freq, cfg.item_fewshot_ratio);
    let mass = sum_rows(&trans, &trans_in);
    let contexts = mass
        .filter(|i, _, _| item_popular[i])
        .transpose(n_items)
        .filter(|_, pos, _| pos < cfg.max_context_items);
    let unlinked = |i: usize, j: usize| {
        mass.neighbors(i)
            .binary_search_by_key(&j, |&(k, _)| k)
            .is_err()
    };
    let incompatible = co_listed(n_items, &contexts, unlinked).symmetric();

    // --- similar user relations (E+_uu) -------------------------------------
    // Users sharing an item within its capped user list; weight =
    // Σ_k (w_ik + w_jk) / (Σ w_i + Σ w_j) over every item both interacted
    // with, added in ascending item order. Each user's row collects its
    // candidates off the capped lists, weighs them, and keeps the
    // `max_neighbors` heaviest — weight descending, ties to the lower id,
    // the order `similar` keeps through normalization.
    let user_mass: Vec<f32> = (0..n_users)
        .map(|u| ui.neighbors(u).iter().map(|&(_, w)| w).sum())
        .collect();
    let capped_users = |i: usize| {
        let us = iu.neighbors(i);
        &us[..us.len().min(cfg.max_item_users)]
    };
    let listed = |us: &[(usize, f32)], u: usize| us.binary_search_by_key(&u, |&(v, _)| v).is_ok();
    let similar = par_rows(
        n_users,
        || (vec![0usize; n_users], vec![0.0f32; n_items]),
        |a, (seen, counts_a), out| {
            // a's interaction counts, scattered by item: a candidate's
            // shared mass is then one ascending pass over its own row.
            for &(i, w) in ui.neighbors(a) {
                counts_a[i] = w;
            }
            let start = out.len();
            for &(i, _) in ui.neighbors(a) {
                let users = capped_users(i);
                if !listed(users, a) {
                    continue;
                }
                for &(b, _) in users {
                    if b == a || seen[b] == a + 1 {
                        continue;
                    }
                    seen[b] = a + 1;
                    let shared = ui
                        .neighbors(b)
                        .iter()
                        .filter(|&&(j, _)| counts_a[j] != 0.0)
                        .fold(0.0f32, |s, &(j, wb)| s + (counts_a[j] + wb));
                    out.push((b, shared / (user_mass[a] + user_mass[b]).max(1e-9)));
                }
            }
            for &(i, _) in ui.neighbors(a) {
                counts_a[i] = 0.0;
            }
            let keep = keep_heaviest(&mut out[start..], cfg.max_neighbors);
            out.truncate(start + keep);
        },
    );

    // --- dissimilar user relations (E-_uu) -----------------------------------
    // Popular users who share no item within the caps (so are not similar)
    // but share a similar user k; weight Σ_k (w+_ik + w+_kj) in ascending k.
    // Each user's popular similar neighbours, put in id order by two
    // counting transposes, are the lists.
    let user_popular = popular_flags(&user_freq, cfg.user_fewshot_ratio);
    let circles = similar
        .filter(|_, _, b| user_popular[b])
        .transpose(n_users)
        .transpose(n_users);
    let never_co_listed = |a: usize, b: usize| {
        !shared_items(ui.neighbors(a), ui.neighbors(b)).any(|(i, _, _)| {
            let users = capped_users(i);
            listed(users, a) && listed(users, b)
        })
    };
    let dissimilar = co_listed(n_users, &circles, never_co_listed).symmetric();

    let cap = cfg.max_neighbors;
    MultiRelationGraph {
        num_users: n_users,
        num_items: store.num_items(),
        user_item: ui.top_k(cap).row_normalized(),
        item_user: iu.top_k(cap).row_normalized(),
        trans_out: trans.top_k(cap).row_normalized(),
        trans_in: trans_in.top_k(cap).row_normalized(),
        incompatible: incompatible.top_k(cap).row_normalized(),
        similar: similar.row_normalized(),
        dissimilar: dissimilar.top_k(cap).row_normalized(),
        item_popular,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_data::SyntheticConfig;

    fn toy() -> Dataset {
        Dataset {
            name: "toy".into(),
            num_users: 4,
            num_items: 6,
            sequences: vec![vec![1, 2, 3], vec![1, 2, 4], vec![5, 2, 3], vec![6, 1, 2]],
            noise_labels: None,
        }
    }

    #[test]
    fn transitional_edges_follow_order() {
        let g = build_graph(&toy(), &GraphConfig::default());
        // 1 → 2 occurs in three sequences; 2 → 1 never.
        assert!(g.trans_out.weight(1, 2).is_some());
        assert!(g.trans_out.weight(2, 1).is_none());
        // trans_in is the transpose.
        assert!(g.trans_in.weight(2, 1).is_some());
    }

    #[test]
    fn transitional_weight_decays_with_distance() {
        // Unnormalised weights: in [1,2,3], w(1→2) uses Dis=1, w(1→3) Dis=2,
        // so pre-normalisation w(1→2) > w(1→3). Check via a single-sequence
        // dataset where normalisation preserves the ordering.
        let ds = Dataset {
            name: "t".into(),
            num_users: 1,
            num_items: 3,
            sequences: vec![vec![1, 2, 3]],
            noise_labels: None,
        };
        let g = build_graph(&ds, &GraphConfig::default());
        let w12 = g.trans_out.weight(1, 2).unwrap();
        let w13 = g.trans_out.weight(1, 3).unwrap();
        assert!(w12 > w13, "{w12} vs {w13}");
    }

    #[test]
    fn pad_item_is_isolated() {
        let g = build_graph(&toy(), &GraphConfig::default());
        assert_eq!(g.trans_out.degree(0), 0);
        assert_eq!(g.trans_in.degree(0), 0);
        assert_eq!(g.incompatible.degree(0), 0);
    }

    #[test]
    fn similar_users_share_items() {
        let g = build_graph(&toy(), &GraphConfig::default());
        // Users 0 and 1 share items {1, 2}.
        assert!(g.similar.weight(0, 1).is_some());
        assert!(g.similar.weight(1, 0).is_some(), "similar is undirected");
    }

    #[test]
    fn incompatible_requires_no_transitional_link() {
        let g = build_graph(&toy(), &GraphConfig::default());
        for i in 1..=g.num_items {
            for &(j, _) in g.incompatible.neighbors(i) {
                assert!(
                    g.trans_out.weight(i, j).is_none() && g.trans_out.weight(j, i).is_none(),
                    "incompatible pair ({i},{j}) has a transitional edge"
                );
            }
        }
    }

    #[test]
    fn dissimilar_users_never_similar() {
        let ds = SyntheticConfig::beauty().scaled(0.3).generate();
        let g = build_graph(&ds, &GraphConfig::default());
        for u in 0..g.num_users {
            for &(v, _) in g.dissimilar.neighbors(u) {
                assert!(
                    g.similar.weight(u, v).is_none(),
                    "({u},{v}) both similar and dissimilar"
                );
            }
        }
    }

    #[test]
    fn rows_are_normalized() {
        let g = build_graph(&toy(), &GraphConfig::default());
        for i in 1..=g.num_items {
            if g.trans_out.degree(i) > 0 {
                let s: f32 = g.trans_out.neighbors(i).iter().map(|&(_, w)| w).sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn neighbor_cap_enforced() {
        let ds = SyntheticConfig::ml100k().scaled(0.5).generate();
        let cfg = GraphConfig {
            max_neighbors: 5,
            ..GraphConfig::default()
        };
        let g = build_graph(&ds, &cfg);
        for i in 0..=g.num_items {
            assert!(g.trans_out.degree(i) <= 5);
        }
        for u in 0..g.num_users {
            assert!(g.similar.degree(u) <= 5);
        }
    }

    #[test]
    fn builds_on_every_profile() {
        for cfg in SyntheticConfig::all_profiles() {
            let ds = cfg.scaled(0.2).generate();
            let g = build_graph(&ds, &GraphConfig::default());
            assert!(g.total_edges() > 0, "{}: empty graph", ds.name);
        }
    }

    #[test]
    fn coherence_favours_cooccurring_items() {
        let g = build_graph(&toy(), &GraphConfig::default());
        // [1, 2, 3] is a frequent pattern; a sequence with an alien item
        // should score it lowest.
        let c = g.sequence_coherence(&[1, 2, 6, 3], 3);
        assert_eq!(c.len(), 4);
        let alien = c[2];
        assert!(
            c[0] > alien && c[1] > alien,
            "alien item not least coherent: {c:?}"
        );
    }

    #[test]
    fn coherence_handles_short_sequences() {
        let g = build_graph(&toy(), &GraphConfig::default());
        assert_eq!(g.sequence_coherence(&[1], 3), vec![0.0]);
        assert!(g.sequence_coherence(&[], 3).is_empty());
    }

    #[test]
    fn coherence_is_nonnegative() {
        let ds = SyntheticConfig::yelp().scaled(0.2).generate();
        let g = build_graph(&ds, &GraphConfig::default());
        for seq in ds.sequences.iter().take(20) {
            assert!(g.sequence_coherence(seq, 3).iter().all(|&c| c >= 0.0));
        }
    }

    #[test]
    fn construction_is_bit_identical_across_builds() {
        // Every intermediate edge map is a `HashMap` with a per-instance
        // random hasher, so two builds traverse the maps in different
        // orders. The canonicalized emission (`sorted_edges`, sorted
        // context keys, id tie-breaks) must still produce byte-identical
        // graphs — float sums are order-sensitive, and the stage-1 encoder
        // (and hence trained checkpoints) inherit every low bit from here.
        let ds = SyntheticConfig::beauty().scaled(0.3).generate();
        let a = build_graph(&ds, &GraphConfig::default());
        let b = build_graph(&ds, &GraphConfig::default());
        let pairs = [
            ("user_item", &a.user_item, &b.user_item),
            ("item_user", &a.item_user, &b.item_user),
            ("trans_out", &a.trans_out, &b.trans_out),
            ("trans_in", &a.trans_in, &b.trans_in),
            ("incompatible", &a.incompatible, &b.incompatible),
            ("similar", &a.similar, &b.similar),
            ("dissimilar", &a.dissimilar, &b.dissimilar),
        ];
        for (name, x, y) in pairs {
            assert_eq!(x.num_edges(), y.num_edges(), "{name}: edge count");
            for i in 0..x.num_nodes() {
                let (nx, ny) = (x.neighbors(i), y.neighbors(i));
                assert_eq!(nx.len(), ny.len(), "{name}: degree of {i}");
                for (&(jx, wx), &(jy, wy)) in nx.iter().zip(ny) {
                    assert_eq!(jx, jy, "{name}: neighbour order at node {i}");
                    assert_eq!(
                        wx.to_bits(),
                        wy.to_bits(),
                        "{name}: weight bits for edge {i}→{jx}"
                    );
                }
            }
        }
    }

    #[test]
    fn popularity_threshold_marks_minority() {
        let ds = SyntheticConfig::sports().scaled(0.5).generate();
        let g = build_graph(&ds, &GraphConfig::default());
        let popular = g.item_popular.iter().filter(|&&p| p).count();
        let total = g.num_items;
        assert!(
            popular > 0 && popular < total / 2,
            "popular {popular}/{total}"
        );
    }
}
