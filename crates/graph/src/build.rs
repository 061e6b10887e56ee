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

use ssdrec_data::{Dataset, SequenceStore};

use crate::csr::Csr;

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

/// Exclusive prefix sum of per-node counts into CSR offsets.
fn prefix_offsets(deg: &[usize]) -> Vec<usize> {
    let mut offs = Vec::with_capacity(deg.len() + 1);
    let mut acc = 0usize;
    offs.push(0);
    for &d in deg {
        acc += d;
        offs.push(acc);
    }
    offs
}

/// Stable-sort a contribution stream by key, then merge-sum duplicate keys
/// left to right.
///
/// This is the replacement for `HashMap` `+=` accumulation: when the
/// contributions were *emitted* in encounter order, the stable sort keeps
/// that order within each key, and the left-to-right fold performs the
/// additions in exactly the sequence the hash map would have — so the merged
/// weights are bit-identical (float addition is order-sensitive), and the
/// output is already in ascending key order (the old `sorted_edges`).
fn merge_contributions<K: Ord + Copy>(v: &mut Vec<(K, f32)>) {
    v.sort_by_key(|&(k, _)| k);
    let mut w = 0usize;
    let mut r = 0usize;
    while r < v.len() {
        let (k, mut acc) = v[r];
        r += 1;
        while r < v.len() && v[r].0 == k {
            acc += v[r].1;
            r += 1;
        }
        v[w] = (k, acc);
        w += 1;
    }
    v.truncate(w);
}

/// Scatter an ascending-key undirected edge list into per-node CSR arrays
/// (each edge appears in both endpoint rows).
fn fill_undirected(n: usize, edges: &[((usize, usize), f32)]) -> (Vec<usize>, Vec<(usize, f32)>) {
    let mut deg = vec![0usize; n];
    for &((a, b), _) in edges {
        deg[a] += 1;
        deg[b] += 1;
    }
    let offs = prefix_offsets(&deg);
    let mut cur = offs[..n].to_vec();
    let mut nbrs = vec![(0usize, 0.0f32); offs[n]];
    for &((a, b), w) in edges {
        nbrs[cur[a]] = (b, w);
        cur[a] += 1;
        nbrs[cur[b]] = (a, w);
        cur[b] += 1;
    }
    (offs, nbrs)
}

/// Binary-search a key-sorted CSR row.
fn row_get(offsets: &[usize], nbrs: &[(usize, f32)], i: usize, j: usize) -> Option<f32> {
    let row = &nbrs[offsets[i]..offsets[i + 1]];
    row.binary_search_by_key(&j, |&(k, _)| k)
        .ok()
        .map(|p| row[p].1)
}

/// Build the full multi-relation graph from an in-RAM dataset.
pub fn build_graph(ds: &Dataset, cfg: &GraphConfig) -> MultiRelationGraph {
    build_graph_from_store(ds, cfg)
}

/// Build the full multi-relation graph by counting passes over a
/// [`SequenceStore`] — the out-of-core path.
///
/// The construction makes three sequential passes over the store (interaction
/// rows + frequencies, transitional-pair counts, transitional-pair fill); all
/// later relations derive from those CSR intermediates. Each relation follows
/// the count → offsets → fill → sort → weight-merge discipline instead of
/// hash-map accumulation, and [`merge_contributions`] reproduces the hash
/// map's addition order exactly, so the resulting graph is **byte-identical**
/// to the historical builder on every input
/// (`crates/graph/tests/csr_regression.rs` pins this against hashes captured
/// before the rewrite).
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

    // item → interacting users: counting transpose of the `ui` rows. Filling
    // in ascending user order leaves every row user-sorted.
    let mut iu_deg = vec![0usize; n_items];
    for &(i, _) in &ui_nbrs {
        iu_deg[i] += 1;
    }
    let iu_offsets = prefix_offsets(&iu_deg);
    let mut cur = iu_offsets[..n_items].to_vec();
    let mut iu_nbrs = vec![(0usize, 0.0f32); ui_nbrs.len()];
    for u in 0..n_users {
        for &(i, w) in &ui_nbrs[ui_offsets[u]..ui_offsets[u + 1]] {
            iu_nbrs[cur[i]] = (u, w);
            cur[i] += 1;
        }
    }

    // --- transitional relations (E+_vv) -----------------------------------
    // w+_{ij} = Σ over sequences containing v_i before v_j of (n - Dis)/n.
    // Store pass 2 counts one contribution per ordered pair; pass 3 scatters
    // `(target, w)` into a flat per-source buffer. Contributions land in scan
    // order, so the per-row sort + merge reproduces hash-map accumulation.
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

    // Incoming transpose; ascending-source fill keeps rows source-sorted.
    let mut tin_deg = vec![0usize; n_items];
    for &(j, _) in &trans_nbrs {
        tin_deg[j] += 1;
    }
    let tin_offsets = prefix_offsets(&tin_deg);
    let mut cur = tin_offsets[..n_items].to_vec();
    let mut tin_nbrs = vec![(0usize, 0.0f32); trans_nbrs.len()];
    for i in 0..n_items {
        for &(j, w) in &trans_nbrs[trans_offsets[i]..trans_offsets[i + 1]] {
            tin_nbrs[cur[j]] = (i, w);
            cur[j] += 1;
        }
    }

    // --- incompatible relations (E-_vv) ------------------------------------
    // Popular items i, j with no transitional edge either way but a common
    // transitional neighbour k; weight Σ_k (w+_ik + w+_ki + w+_jk + w+_kj).
    let item_popular = popular_flags(&freq, cfg.item_fewshot_ratio);

    // Per-item transitional mass to/from each neighbour (symmetrised once):
    // scatter both directions of every edge in ascending-edge order, then
    // sort + merge each row.
    let mut mass_deg = vec![0usize; n_items];
    for i in 0..n_items {
        for &(j, _) in &trans_nbrs[trans_offsets[i]..trans_offsets[i + 1]] {
            mass_deg[i] += 1;
            mass_deg[j] += 1;
        }
    }
    let mbuf_offs = prefix_offsets(&mass_deg);
    let mut mbuf: Vec<(usize, f32)> = vec![(0, 0.0); mbuf_offs[n_items]];
    let mut cur = mbuf_offs[..n_items].to_vec();
    for i in 0..n_items {
        for &(j, w) in &trans_nbrs[trans_offsets[i]..trans_offsets[i + 1]] {
            mbuf[cur[i]] = (j, w);
            cur[i] += 1;
            mbuf[cur[j]] = (i, w);
            cur[j] += 1;
        }
    }
    let mut mass_offsets: Vec<usize> = Vec::with_capacity(n_items + 1);
    mass_offsets.push(0);
    let mut mass_nbrs: Vec<(usize, f32)> = Vec::new();
    for i in 0..n_items {
        let row = &mut mbuf[mbuf_offs[i]..mbuf_offs[i + 1]];
        row.sort_by_key(|&(j, _)| j);
        let mut p = 0;
        while p < row.len() {
            let (j, mut acc) = row[p];
            p += 1;
            while p < row.len() && row[p].0 == j {
                acc += row[p].1;
                p += 1;
            }
            mass_nbrs.push((j, acc));
        }
        mass_offsets.push(mass_nbrs.len());
    }
    drop(mbuf);

    // Invert: for each context item k, the popular items connected to k.
    // The counting transpose fills in ascending popular-item order, which is
    // exactly the old per-context push order.
    let popular_items: Vec<usize> = (1..n_items).filter(|&i| item_popular[i]).collect();
    let mut ctx_deg = vec![0usize; n_items];
    for &i in &popular_items {
        for &(k, _) in &mass_nbrs[mass_offsets[i]..mass_offsets[i + 1]] {
            ctx_deg[k] += 1;
        }
    }
    let ctx_offs = prefix_offsets(&ctx_deg);
    let mut cur = ctx_offs[..n_items].to_vec();
    let mut ctx_items = vec![0usize; ctx_offs[n_items]];
    for &i in &popular_items {
        for &(k, _) in &mass_nbrs[mass_offsets[i]..mass_offsets[i + 1]] {
            ctx_items[cur[k]] = i;
            cur[k] += 1;
        }
    }

    // Contributions stream in ascending context order (the old BTreeMap
    // iteration); merge_contributions restores per-pair accumulation order.
    let mut icontrib: Vec<((usize, usize), f32)> = Vec::new();
    for k in 0..n_items {
        let items = &ctx_items[ctx_offs[k]..ctx_offs[k + 1]];
        let items = &items[..items.len().min(cfg.max_context_items)];
        for ai in 0..items.len() {
            for bi in (ai + 1)..items.len() {
                let (i, j) = (items[ai], items[bi]); // ascending ⇒ i < j
                if row_get(&trans_offsets, &trans_nbrs, i, j).is_some()
                    || row_get(&trans_offsets, &trans_nbrs, j, i).is_some()
                {
                    continue;
                }
                let w = row_get(&mass_offsets, &mass_nbrs, i, k).unwrap_or(0.0)
                    + row_get(&mass_offsets, &mass_nbrs, j, k).unwrap_or(0.0);
                icontrib.push(((i, j), w));
            }
        }
    }
    merge_contributions(&mut icontrib);
    let (inc_offsets, inc_nbrs) = fill_undirected(n_items, &icontrib);
    drop(icontrib);

    // --- similar user relations (E+_uu) -------------------------------------
    // Users sharing an item; weight = Σ_k (w_ik + w_jk) / (Σ w_i + Σ w_j).
    // The `iu` rows are user-sorted, so pair enumeration per item emits
    // `(a, b)` with `a < b` directly; sort + dedup gives the canonical pair
    // set. Each pair's weight is independent (no accumulation), computed by
    // a two-pointer merge over the two item-sorted `ui` rows — the same
    // ascending-item addition order as the old per-user hash-map probe.
    let user_mass: Vec<f32> = (0..n_users)
        .map(|u| {
            ui_nbrs[ui_offsets[u]..ui_offsets[u + 1]]
                .iter()
                .map(|&(_, w)| w)
                .sum()
        })
        .collect();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for i in 0..n_items {
        let us = &iu_nbrs[iu_offsets[i]..iu_offsets[i + 1]];
        let us = &us[..us.len().min(cfg.max_item_users)];
        for ai in 0..us.len() {
            for bi in (ai + 1)..us.len() {
                pairs.push((us[ai].0 as u32, us[bi].0 as u32));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();

    let mut sim_edges: Vec<((usize, usize), f32)> = Vec::with_capacity(pairs.len());
    for &(a, b) in &pairs {
        let (a, b) = (a as usize, b as usize);
        let ra = &ui_nbrs[ui_offsets[a]..ui_offsets[a + 1]];
        let rb = &ui_nbrs[ui_offsets[b]..ui_offsets[b + 1]];
        let mut shared = 0.0f32;
        let (mut x, mut y) = (0usize, 0usize);
        while x < ra.len() && y < rb.len() {
            match ra[x].0.cmp(&rb[y].0) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    shared += ra[x].1 + rb[y].1;
                    x += 1;
                    y += 1;
                }
            }
        }
        let w = shared / (user_mass[a] + user_mass[b]).max(1e-9);
        sim_edges.push(((a, b), w));
    }

    // Scatter both directions, then per-row weight-descending sort with an
    // explicit id tie-break (a total order, so fill order is irrelevant) and
    // truncation — `similar` keeps this order through normalization, and the
    // dissimilar scan below consumes it.
    let (sbuf_offs, mut sbuf) = fill_undirected(n_users, &sim_edges);
    let mut sim_offsets: Vec<usize> = Vec::with_capacity(n_users + 1);
    sim_offsets.push(0);
    let mut sim_nbrs: Vec<(usize, f32)> = Vec::new();
    for u in 0..n_users {
        let row = &mut sbuf[sbuf_offs[u]..sbuf_offs[u + 1]];
        row.sort_by(|x, y| {
            y.1.partial_cmp(&x.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.0.cmp(&y.0))
        });
        let keep = row.len().min(cfg.max_neighbors);
        sim_nbrs.extend_from_slice(&row[..keep]);
        sim_offsets.push(sim_nbrs.len());
    }
    drop(sbuf);

    // --- dissimilar user relations (E-_uu) -----------------------------------
    // Popular users who never co-interact but share a similar user k;
    // weight Σ_k (w+_ik + w+_kj) over shared similar users. Contributions
    // stream in ascending-user scan order, matching the old hash-map walk.
    let user_popular = popular_flags(&user_freq, cfg.user_fewshot_ratio);
    let mut dcontrib: Vec<((usize, usize), f32)> = Vec::new();
    for u in 0..n_users {
        let nbrs = &sim_nbrs[sim_offsets[u]..sim_offsets[u + 1]];
        for ai in 0..nbrs.len() {
            for bi in (ai + 1)..nbrs.len() {
                let (a, wa) = nbrs[ai];
                let (b, wb) = nbrs[bi];
                if !user_popular[a] || !user_popular[b] {
                    continue;
                }
                let (lo, hi) = (a.min(b), a.max(b));
                if pairs.binary_search(&(lo as u32, hi as u32)).is_ok() {
                    continue; // they are similar, not dissimilar
                }
                dcontrib.push(((lo, hi), wa + wb));
            }
        }
    }
    merge_contributions(&mut dcontrib);
    let (dis_offsets, dis_nbrs) = fill_undirected(n_users, &dcontrib);
    drop(dcontrib);

    let cap = cfg.max_neighbors;
    MultiRelationGraph {
        num_users: n_users,
        num_items: store.num_items(),
        user_item: Csr::from_parts(ui_offsets, ui_nbrs)
            .top_k(cap)
            .row_normalized(),
        item_user: Csr::from_parts(iu_offsets, iu_nbrs)
            .top_k(cap)
            .row_normalized(),
        trans_out: Csr::from_parts(trans_offsets, trans_nbrs)
            .top_k(cap)
            .row_normalized(),
        trans_in: Csr::from_parts(tin_offsets, tin_nbrs)
            .top_k(cap)
            .row_normalized(),
        incompatible: Csr::from_parts(inc_offsets, inc_nbrs)
            .top_k(cap)
            .row_normalized(),
        similar: Csr::from_parts(sim_offsets, sim_nbrs).row_normalized(),
        dissimilar: Csr::from_parts(dis_offsets, dis_nbrs)
            .top_k(cap)
            .row_normalized(),
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
