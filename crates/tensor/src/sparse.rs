//! Constant sparse operators for message passing over a fixed graph.
//!
//! A [`CsrMatrix`] is built once (at model-build time) and shared by `Arc`:
//! every tape node that multiplies by it ([`crate::graph::Graph::spmm`])
//! holds a reference-counted handle, never a copy. Each row keeps its
//! entries column-ascending and the transpose is precomputed, so the
//! forward product and its input gradient are the same row kernel
//! ([`crate::kernels::spmm`]) over one half or the other.

use std::fmt;
use std::sync::Arc;

/// One CSR half: row `i`'s entries are `idx[offsets[i]..offsets[i + 1]]`
/// (strictly ascending) with their weights alongside in `vals`.
pub(crate) struct CsrRows {
    pub(crate) offsets: Vec<usize>,
    pub(crate) idx: Vec<u32>,
    pub(crate) vals: Vec<f32>,
}

impl CsrRows {
    /// The `(index, weight)` entries of row `i`.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let span = self.offsets[i]..self.offsets[i + 1];
        self.idx[span.clone()]
            .iter()
            .zip(&self.vals[span])
            .map(|(&j, &w)| (j as usize, w))
    }

    /// Each run of one index within a row merged into its last entry.
    fn last_of_repeats(self) -> CsrRows {
        let mut out = CsrRows {
            offsets: Vec::with_capacity(self.offsets.len()),
            idx: Vec::with_capacity(self.idx.len()),
            vals: Vec::with_capacity(self.vals.len()),
        };
        out.offsets.push(0);
        for i in 0..self.offsets.len() - 1 {
            let start = out.idx.len();
            for (j, w) in self.row(i) {
                if out.idx.len() > start && out.idx.last() == Some(&(j as u32)) {
                    *out.vals.last_mut().expect("entry pushed") = w;
                } else {
                    out.idx.push(j as u32);
                    out.vals.push(w);
                }
            }
            out.offsets.push(out.idx.len());
        }
        out
    }
}

/// The transpose of `n_in` rows given by `row`, over `n_out` columns, by a
/// counting pass: row `j` lists `(i, w)` for every entry `(j, w)` of row
/// `i`, `i` ascending because rows are visited in order, and a row's
/// entries for one `j` in their order.
fn transpose_of<R>(n_in: usize, n_out: usize, row: impl Fn(usize) -> R) -> CsrRows
where
    R: IntoIterator<Item = (usize, f32)>,
{
    let mut offsets = vec![0usize; n_out + 1];
    for i in 0..n_in {
        for (j, _) in row(i) {
            assert!(j < n_out, "CsrMatrix row {i}: column {j} out of {n_out}");
            offsets[j + 1] += 1;
        }
    }
    for c in 0..n_out {
        offsets[c + 1] += offsets[c];
    }
    let mut next = offsets[..n_out].to_vec();
    let mut idx = vec![0u32; offsets[n_out]];
    let mut vals = vec![0.0f32; offsets[n_out]];
    for i in 0..n_in {
        for (j, w) in row(i) {
            idx[next[j]] = i as u32;
            vals[next[j]] = w;
            next[j] += 1;
        }
    }
    CsrRows { offsets, idx, vals }
}

struct Inner {
    rows: usize,
    cols: usize,
    fwd: CsrRows,
    tr: CsrRows,
}

/// A constant `rows×cols` sparse matrix in CSR form with its transpose,
/// shared by `Arc` (cloning is a reference-count bump).
#[derive(Clone)]
pub struct CsrMatrix(Arc<Inner>);

impl CsrMatrix {
    /// Build from each row's `(column, weight)` entries in any order
    /// (`row(i)` is called twice and must list the same entries both
    /// times). Rows are stored column-ascending; when a row repeats a
    /// column, the entry listed last wins — what writing the entries into a
    /// dense matrix in order would leave.
    ///
    /// # Panics
    /// Panics if a column is out of range, or if a dimension exceeds
    /// `u32::MAX`.
    pub fn from_rows<R>(rows: usize, cols: usize, row: impl Fn(usize) -> R) -> Self
    where
        R: IntoIterator<Item = (usize, f32)>,
    {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "CsrMatrix {rows}×{cols} exceeds u32 indices"
        );
        // The transposed half first, straight from the given rows; its
        // rows are source-ascending with a repeated `(i, j)`'s entries side
        // by side in input order, so merging those keeps the last weight.
        let tr = transpose_of(rows, cols, row).last_of_repeats();
        let fwd = transpose_of(cols, rows, |j| tr.row(j));
        CsrMatrix(Arc::new(Inner {
            rows,
            cols,
            fwd,
            tr,
        }))
    }

    /// `(rows, cols)`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.0.rows, self.0.cols)
    }

    /// The row-major half.
    pub(crate) fn rows(&self) -> &CsrRows {
        &self.0.fwd
    }

    /// The transposed half (`cols×rows`).
    pub(crate) fn transposed(&self) -> &CsrRows {
        &self.0.tr
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}×{}, nnz={})",
            self.0.rows,
            self.0.cols,
            self.0.fwd.idx.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(m: &CsrRows, i: usize) -> Vec<(usize, f32)> {
        m.row(i).collect()
    }

    #[test]
    fn rows_are_column_ascending_and_repeats_keep_the_last_weight() {
        let lists = [vec![(2, 0.9), (0, 0.5), (2, 0.1)], vec![], vec![(1, 3.0)]];
        let m = CsrMatrix::from_rows(3, 3, |i| lists[i].clone());
        assert_eq!(m.dims(), (3, 3));
        assert_eq!(entries(m.rows(), 0), vec![(0, 0.5), (2, 0.1)]);
        assert!(entries(m.rows(), 1).is_empty());
        assert_eq!(entries(m.transposed(), 0), vec![(0, 0.5)]);
        assert_eq!(entries(m.transposed(), 1), vec![(2, 3.0)]);
        assert_eq!(entries(m.transposed(), 2), vec![(0, 0.1)]);
    }

    #[test]
    fn clones_share_storage() {
        let m = CsrMatrix::from_rows(2, 4, |i| [(i + 1, 1.0)]);
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.0, &c.0));
        assert_eq!(format!("{c:?}"), "CsrMatrix(2×4, nnz=2)");
    }

    #[test]
    #[should_panic(expected = "out of 2")]
    fn out_of_range_column_panics() {
        CsrMatrix::from_rows(1, 2, |_| [(2, 1.0)]);
    }
}
