//! Compact weighted adjacency storage (CSR) for the multi-relation graph.

/// A weighted adjacency structure in compressed sparse row form.
///
/// Node `i`'s neighbours live in `nbrs[offsets[i]..offsets[i+1]]` as
/// `(neighbour, weight)` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    nbrs: Vec<(usize, f32)>,
}

impl Csr {
    /// Build from per-node neighbour lists.
    pub fn from_lists(lists: Vec<Vec<(usize, f32)>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        let mut nbrs = Vec::new();
        for l in lists {
            nbrs.extend(l);
            offsets.push(nbrs.len());
        }
        Csr { offsets, nbrs }
    }

    /// Build directly from raw CSR arrays, as produced by counting-pass
    /// construction: `offsets` must be monotone with `offsets[0] == 0` and
    /// `offsets.last() == nbrs.len()` (node `i` owns
    /// `nbrs[offsets[i]..offsets[i+1]]`).
    pub fn from_parts(offsets: Vec<usize>, nbrs: Vec<(usize, f32)>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0, "bad offsets");
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "non-monotone");
        debug_assert_eq!(*offsets.last().unwrap(), nbrs.len(), "length mismatch");
        Csr { offsets, nbrs }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.nbrs.len()
    }

    /// The neighbours of node `i`.
    pub fn neighbors(&self, i: usize) -> &[(usize, f32)] {
        &self.nbrs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Keep at most `k` heaviest neighbours per node, heaviest first (ties
    /// to the lower id).
    pub fn top_k(&self, k: usize) -> Csr {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0);
        let mut nbrs = Vec::new();
        let mut row = Vec::new();
        for i in 0..self.num_nodes() {
            row.clear();
            row.extend_from_slice(self.neighbors(i));
            let keep = keep_heaviest(&mut row, k);
            nbrs.extend_from_slice(&row[..keep]);
            offsets.push(nbrs.len());
        }
        Csr { offsets, nbrs }
    }

    /// The transpose over `n` columns: row `j` lists `(i, w)` for every edge
    /// `i → j`, in ascending `i` (a counting transpose, no sort).
    pub(crate) fn transpose(&self, n: usize) -> Csr {
        let mut deg = vec![0usize; n];
        for &(j, _) in &self.nbrs {
            deg[j] += 1;
        }
        let offsets = prefix_offsets(&deg);
        let mut cur = offsets[..n].to_vec();
        let mut nbrs = vec![(0usize, 0.0f32); self.nbrs.len()];
        for i in 0..self.num_nodes() {
            for &(j, w) in self.neighbors(i) {
                nbrs[cur[j]] = (i, w);
                cur[j] += 1;
            }
        }
        Csr { offsets, nbrs }
    }

    /// The edges `keep(row, position in row, neighbour)` accepts, in their
    /// original order.
    pub(crate) fn filter(&self, keep: impl Fn(usize, usize, usize) -> bool) -> Csr {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0);
        let mut nbrs = Vec::new();
        for i in 0..self.num_nodes() {
            let row = self.neighbors(i).iter().enumerate();
            nbrs.extend(row.filter(|&(p, &(j, _))| keep(i, p, j)).map(|(_, &e)| e));
            offsets.push(nbrs.len());
        }
        Csr { offsets, nbrs }
    }

    /// The undirected relation whose upper triangle is `self` (every row
    /// id-ascending with neighbours above the row id): row `r` is the
    /// transpose's row `r` followed by row `r` itself, so it stays
    /// id-ascending.
    pub(crate) fn symmetric(&self) -> Csr {
        let n = self.num_nodes();
        let lower = self.transpose(n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut nbrs = Vec::with_capacity(2 * self.nbrs.len());
        for r in 0..n {
            nbrs.extend_from_slice(lower.neighbors(r));
            nbrs.extend_from_slice(self.neighbors(r));
            offsets.push(nbrs.len());
        }
        Csr { offsets, nbrs }
    }

    /// Row-normalise weights so each node's outgoing weights sum to 1.
    pub fn row_normalized(&self) -> Csr {
        let lists = (0..self.num_nodes())
            .map(|i| {
                let ns = self.neighbors(i);
                let total: f32 = ns.iter().map(|&(_, w)| w).sum();
                if total > 0.0 {
                    ns.iter().map(|&(j, w)| (j, w / total)).collect()
                } else {
                    ns.to_vec()
                }
            })
            .collect();
        Csr::from_lists(lists)
    }

    /// Look up the weight of edge `i → j`, if present.
    pub fn weight(&self, i: usize, j: usize) -> Option<f32> {
        self.neighbors(i)
            .iter()
            .find(|&&(n, _)| n == j)
            .map(|&(_, w)| w)
    }
}

/// Exclusive prefix sum of per-node counts into CSR offsets.
pub(crate) fn prefix_offsets(deg: &[usize]) -> Vec<usize> {
    let mut offs = Vec::with_capacity(deg.len() + 1);
    let mut acc = 0usize;
    offs.push(0);
    for &d in deg {
        acc += d;
        offs.push(acc);
    }
    offs
}

/// Move the `k` heaviest entries of `row` to its front, heaviest first, and
/// return how many that is (`min(k, len)`). The order is total — weight
/// descending, ties to the lower id — so selecting and then sorting the
/// kept entries equals sorting the whole row and truncating it.
pub(crate) fn keep_heaviest(row: &mut [(usize, f32)], k: usize) -> usize {
    let heavier = |a: &(usize, f32), b: &(usize, f32)| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    };
    let keep = row.len().min(k);
    if keep == 0 {
        return 0;
    }
    if keep < row.len() {
        row.select_nth_unstable_by(keep - 1, heavier);
    }
    row[..keep].sort_by(heavier);
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Csr {
        Csr::from_lists(vec![
            vec![(1, 2.0), (2, 1.0)],
            vec![],
            vec![(0, 4.0), (1, 4.0), (2, 2.0)],
        ])
    }

    #[test]
    fn neighbors_and_degree() {
        let c = toy();
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_edges(), 5);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(1), 0);
        assert_eq!(c.neighbors(2).len(), 3);
    }

    #[test]
    fn weight_lookup() {
        let c = toy();
        assert_eq!(c.weight(0, 1), Some(2.0));
        assert_eq!(c.weight(1, 0), None);
    }

    #[test]
    fn top_k_keeps_heaviest() {
        let c = toy().top_k(2);
        assert_eq!(c.degree(2), 2);
        let ws: Vec<f32> = c.neighbors(2).iter().map(|&(_, w)| w).collect();
        assert_eq!(ws, vec![4.0, 4.0]);
    }

    #[test]
    fn row_normalized_sums_to_one() {
        let c = toy().row_normalized();
        for i in 0..c.num_nodes() {
            if c.degree(i) > 0 {
                let s: f32 = c.neighbors(i).iter().map(|&(_, w)| w).sum();
                assert!((s - 1.0).abs() < 1e-6);
            }
        }
    }
}
