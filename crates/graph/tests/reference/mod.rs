//! The sort-and-merge graph builder that the row-parallel one replaced,
//! kept verbatim as an oracle, the way `ssdrec-tensor`'s `backend_parity`
//! keeps the unfused chains. Only two things differ from the original:
//! the imports, and `top_k` is spelled `sorted_top_k` so that it runs the
//! original whole-row sort below instead of the selecting `Csr::top_k`.

#![allow(dead_code, clippy::needless_range_loop)]

use ssdrec_data::SequenceStore;
use ssdrec_graph::{Csr, GraphConfig, MultiRelationGraph};

/// The original `Csr::top_k`: sort every row, then truncate.
trait SortedTopK {
    fn sorted_top_k(&self, k: usize) -> Csr;
}

impl SortedTopK for Csr {
    fn sorted_top_k(&self, k: usize) -> Csr {
        let lists = (0..self.num_nodes())
            .map(|i| {
                let mut l = self.neighbors(i).to_vec();
                // Explicit id tie-break: equal weights must truncate to the
                // same neighbours regardless of the caller's list order.
                l.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                l.truncate(k);
                l
            })
            .collect();
        Csr::from_lists(lists)
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
            .sorted_top_k(cap)
            .row_normalized(),
        item_user: Csr::from_parts(iu_offsets, iu_nbrs)
            .sorted_top_k(cap)
            .row_normalized(),
        trans_out: Csr::from_parts(trans_offsets, trans_nbrs)
            .sorted_top_k(cap)
            .row_normalized(),
        trans_in: Csr::from_parts(tin_offsets, tin_nbrs)
            .sorted_top_k(cap)
            .row_normalized(),
        incompatible: Csr::from_parts(inc_offsets, inc_nbrs)
            .sorted_top_k(cap)
            .row_normalized(),
        similar: Csr::from_parts(sim_offsets, sim_nbrs).row_normalized(),
        dissimilar: Csr::from_parts(dis_offsets, dis_nbrs)
            .sorted_top_k(cap)
            .row_normalized(),
        item_popular,
    }
}
