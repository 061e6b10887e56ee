//! The [`SequenceStore`] abstraction: one interface over the in-RAM
//! [`Dataset`] and the out-of-core [`ColumnarReader`].
//!
//! Everything downstream of loading — the leave-one-out split plan, the
//! batch iterator, graph construction, training — runs against this trait,
//! and is **bit-identical** across backing stores: a windowed columnar file
//! and a fully materialized dataset produce the same batches, the same CSRs
//! and the same checkpoints, byte for byte. Property tests pin this
//! (`crates/data/tests/prop_columnar.rs`).
//!
//! Stores hand sequences out through caller-provided buffers
//! (`read_seq(u, &mut buf)`), so iterating a store allocates nothing per
//! user and peak RAM stays bounded by the store's own index structures.

use crate::colfile::ColumnarReader;
use crate::interaction::{Dataset, Example, Split};

/// Read access to a corpus of interaction sequences.
pub trait SequenceStore {
    /// Number of users (sequences).
    fn num_users(&self) -> usize;
    /// Catalogue size; item ids are `1..=num_items`.
    fn num_items(&self) -> usize;
    /// Dataset name.
    fn name(&self) -> &str;
    /// Whether ground-truth noise labels are available.
    fn has_noise(&self) -> bool;
    /// Length of user `u`'s sequence without reading it.
    fn seq_len(&self, u: usize) -> usize;
    /// Fill `out` (cleared first) with user `u`'s item sequence.
    fn read_seq(&self, u: usize, out: &mut Vec<usize>);
    /// Fill `out` (cleared first) with user `u`'s noise labels; `out` is
    /// left empty when [`SequenceStore::has_noise`] is false.
    fn read_noise(&self, u: usize, out: &mut Vec<bool>);

    /// Total interactions across all users.
    fn num_interactions(&self) -> u64 {
        (0..self.num_users()).map(|u| self.seq_len(u) as u64).sum()
    }
}

impl SequenceStore for Dataset {
    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn has_noise(&self) -> bool {
        self.noise_labels.is_some()
    }

    fn seq_len(&self, u: usize) -> usize {
        self.sequences[u].len()
    }

    fn read_seq(&self, u: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.sequences[u]);
    }

    fn read_noise(&self, u: usize, out: &mut Vec<bool>) {
        out.clear();
        if let Some(l) = &self.noise_labels {
            out.extend_from_slice(&l[u]);
        }
    }
}

impl SequenceStore for ColumnarReader {
    fn num_users(&self) -> usize {
        ColumnarReader::num_users(self)
    }

    fn num_items(&self) -> usize {
        ColumnarReader::num_items(self)
    }

    fn name(&self) -> &str {
        ColumnarReader::name(self)
    }

    fn has_noise(&self) -> bool {
        ColumnarReader::has_noise(self)
    }

    fn seq_len(&self, u: usize) -> usize {
        ColumnarReader::seq_len(self, u)
    }

    fn read_seq(&self, u: usize, out: &mut Vec<usize>) {
        ColumnarReader::read_seq(self, u, out)
    }

    fn read_noise(&self, u: usize, out: &mut Vec<bool>) {
        ColumnarReader::read_noise(self, u, out)
    }

    fn num_interactions(&self) -> u64 {
        ColumnarReader::num_interactions(self)
    }
}

/// A zero-copy view of a store with every sequence truncated to its most
/// recent `max_len` interactions — the lazy analogue of
/// [`crate::preprocess::truncate_to_max_len`].
pub struct TruncatedStore<'a, S: SequenceStore + ?Sized> {
    inner: &'a S,
    max_len: usize,
}

impl<'a, S: SequenceStore + ?Sized> TruncatedStore<'a, S> {
    /// Wrap `inner`, keeping at most the last `max_len` items per user.
    pub fn new(inner: &'a S, max_len: usize) -> Self {
        assert!(max_len > 0, "max_len must be positive");
        TruncatedStore { inner, max_len }
    }
}

impl<S: SequenceStore + ?Sized> SequenceStore for TruncatedStore<'_, S> {
    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn has_noise(&self) -> bool {
        self.inner.has_noise()
    }

    fn seq_len(&self, u: usize) -> usize {
        self.inner.seq_len(u).min(self.max_len)
    }

    fn read_seq(&self, u: usize, out: &mut Vec<usize>) {
        self.inner.read_seq(u, out);
        if out.len() > self.max_len {
            out.drain(..out.len() - self.max_len);
        }
    }

    fn read_noise(&self, u: usize, out: &mut Vec<bool>) {
        self.inner.read_noise(u, out);
        if out.len() > self.max_len {
            out.drain(..out.len() - self.max_len);
        }
    }
}

/// A training/eval example as *metadata only*: the items live in the store.
///
/// `prefix_len` items of `user`'s sequence form the input; the item at
/// position `prefix_len` is the target. 8 bytes per example, vs. an owned
/// [`Example`]'s full item vector — the difference between a 1M-user split
/// plan fitting in tens of MB and blowing past RAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExampleRef {
    /// User id (row in the store).
    pub user: u32,
    /// Number of leading items forming the input; the target sits at this
    /// position.
    pub prefix_len: u32,
}

impl ExampleRef {
    /// Materialize the full [`Example`] from its store.
    pub fn materialize(&self, store: &dyn SequenceStore, seq: &mut Vec<usize>) -> Example {
        store.read_seq(self.user as usize, seq);
        let p = self.prefix_len as usize;
        let noise = if store.has_noise() {
            let mut nz = Vec::new();
            store.read_noise(self.user as usize, &mut nz);
            nz.truncate(p);
            Some(nz)
        } else {
            None
        };
        Example {
            user: self.user as usize,
            seq: seq[..p].to_vec(),
            target: seq[p],
            noise,
        }
    }
}

/// A leave-one-out split as example references
/// ([`crate::preprocess::plan_leave_one_out`]).
#[derive(Clone, Debug, Default)]
pub struct SplitPlan {
    /// Training prefixes.
    pub train: Vec<ExampleRef>,
    /// One validation example per eligible user.
    pub valid: Vec<ExampleRef>,
    /// One test example per eligible user.
    pub test: Vec<ExampleRef>,
}

impl SplitPlan {
    /// Materialize every example into an owned [`Split`] (tests and
    /// small-scale paths; defeats the purpose at scale).
    pub fn materialize(&self, store: &dyn SequenceStore) -> Split {
        let mut seq = Vec::new();
        let mut out = Split::default();
        for (refs, dst) in [
            (&self.train, &mut out.train),
            (&self.valid, &mut out.valid),
            (&self.test, &mut out.test),
        ] {
            dst.reserve(refs.len());
            for r in refs {
                dst.push(r.materialize(store, &mut seq));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::truncate_to_max_len;
    use crate::synthetic::SyntheticConfig;

    #[test]
    fn dataset_store_round_trips() {
        let ds = SyntheticConfig::beauty().scaled(0.1).generate();
        let store: &dyn SequenceStore = &ds;
        assert_eq!(store.num_users(), ds.num_users);
        assert_eq!(store.num_interactions() as usize, ds.num_actions());
        let mut buf = Vec::new();
        let mut nz = Vec::new();
        for u in 0..ds.num_users {
            store.read_seq(u, &mut buf);
            assert_eq!(buf, ds.sequences[u]);
            store.read_noise(u, &mut nz);
            assert_eq!(&nz, &ds.noise_labels.as_ref().unwrap()[u]);
        }
    }

    #[test]
    fn truncated_store_matches_eager_truncation() {
        let ds = SyntheticConfig::ml100k().scaled(0.2).generate();
        let mut eager = ds.clone();
        truncate_to_max_len(&mut eager, 12);
        let lazy = TruncatedStore::new(&ds, 12);
        let (mut buf, mut nz) = (Vec::new(), Vec::new());
        for u in 0..ds.num_users {
            assert_eq!(lazy.seq_len(u), eager.sequences[u].len());
            lazy.read_seq(u, &mut buf);
            assert_eq!(buf, eager.sequences[u]);
            lazy.read_noise(u, &mut nz);
            assert_eq!(&nz, &eager.noise_labels.as_ref().unwrap()[u]);
        }
    }
}
