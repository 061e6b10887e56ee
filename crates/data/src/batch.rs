//! Mini-batching with length bucketing.
//!
//! Batches group examples of *identical* sequence length, which removes any
//! need for padding or masking inside the models — every tensor in a batch
//! is dense `B×T`. The paper's batch size (256) applies per bucket.

use ssdrec_base::Rng;
use std::collections::BTreeMap;

use crate::interaction::Example;
use crate::store::{ExampleRef, SequenceStore, SplitPlan};

/// One dense mini-batch of equal-length sequences.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Users, length `B`.
    pub users: Vec<usize>,
    /// Row-major `B×T` item IDs.
    pub items: Vec<usize>,
    /// Sequence length `T` shared by the whole batch.
    pub seq_len: usize,
    /// Next-item targets, length `B`.
    pub targets: Vec<usize>,
    /// Ground-truth noise flags (`B×T`, synthetic data only).
    pub noise: Option<Vec<bool>>,
}

impl Batch {
    /// Batch size `B`.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The item row for batch element `i`.
    pub fn seq(&self, i: usize) -> &[usize] {
        &self.items[i * self.seq_len..(i + 1) * self.seq_len]
    }
}

/// One planned batch: a shared sequence length and the example indices that
/// fill it, in emission order. Materializing the items is the caller's job —
/// the plan itself is a few `usize`s per example.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Sequence length `T` shared by the whole batch.
    pub seq_len: usize,
    /// Indices into the caller's example list, in batch row order.
    pub idxs: Vec<usize>,
}

/// The batching decision of [`make_batches`], computed from example
/// *lengths* alone: shuffle example order with `seed`, bucket by exact
/// length (preserving shuffled order inside buckets), chunk each bucket by
/// `batch_size`, then shuffle the batch order.
///
/// This consumes the exact RNG draw sequence `make_batches` historically
/// consumed (one shuffle over examples, one over batches), so planning over
/// a store and batching owned examples are bit-identical.
pub fn plan_batches(lengths: &[usize], batch_size: usize, seed: u64) -> Vec<BatchPlan> {
    assert!(batch_size > 0, "batch_size must be positive");
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    let mut rng = Rng::seed(seed);
    rng.shuffle(&mut order);

    // Bucket by exact length, preserving shuffled order inside buckets.
    let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &i in &order {
        buckets.entry(lengths[i]).or_default().push(i);
    }

    let mut plans = Vec::new();
    for (len, idxs) in buckets {
        if len == 0 {
            continue;
        }
        for chunk in idxs.chunks(batch_size) {
            plans.push(BatchPlan {
                seq_len: len,
                idxs: chunk.to_vec(),
            });
        }
    }

    // Shuffle batch order so the model does not see lengths in sorted order.
    rng.shuffle(&mut plans);
    plans
}

/// Deterministically batch `examples` into equal-length groups of at most
/// `batch_size`, shuffling example order with `seed` (shuffle happens within
/// the global list before bucketing, so bucket composition varies per epoch).
pub fn make_batches(examples: &[Example], batch_size: usize, seed: u64) -> Vec<Batch> {
    let lengths: Vec<usize> = examples.iter().map(|e| e.seq.len()).collect();
    plan_batches(&lengths, batch_size, seed)
        .into_iter()
        .map(|plan| {
            let len = plan.seq_len;
            let chunk = &plan.idxs;
            let mut users = Vec::with_capacity(chunk.len());
            let mut items = Vec::with_capacity(chunk.len() * len);
            let mut targets = Vec::with_capacity(chunk.len());
            let has_noise = examples[chunk[0]].noise.is_some();
            let mut noise = if has_noise {
                Some(Vec::with_capacity(chunk.len() * len))
            } else {
                None
            };
            for &i in chunk {
                let ex = &examples[i];
                users.push(ex.user);
                items.extend_from_slice(&ex.seq);
                targets.push(ex.target);
                if let (Some(nv), Some(exn)) = (noise.as_mut(), ex.noise.as_ref()) {
                    nv.extend_from_slice(exn);
                }
            }
            Batch {
                users,
                items,
                seq_len: len,
                targets,
                noise,
            }
        })
        .collect()
}

/// Lazily materialized batches over a [`SequenceStore`] and a slice of
/// [`ExampleRef`]s: the batching decision comes from [`plan_batches`] (so it
/// is bit-identical to [`make_batches`] over the materialized examples), but
/// item data is read from the store one batch at a time — peak RAM is one
/// batch plus the plan, independent of corpus size.
pub struct BatchIter<'a> {
    store: &'a dyn SequenceStore,
    refs: &'a [ExampleRef],
    plans: std::vec::IntoIter<BatchPlan>,
    num_batches: usize,
    seq: Vec<usize>,
    nz: Vec<bool>,
}

impl<'a> BatchIter<'a> {
    /// Plan batches for `refs` over `store` with the same `(batch_size,
    /// seed)` contract as [`make_batches`].
    pub fn new(
        store: &'a dyn SequenceStore,
        refs: &'a [ExampleRef],
        batch_size: usize,
        seed: u64,
    ) -> Self {
        let lengths: Vec<usize> = refs.iter().map(|r| r.prefix_len as usize).collect();
        let plans = plan_batches(&lengths, batch_size, seed);
        BatchIter {
            store,
            refs,
            num_batches: plans.len(),
            plans: plans.into_iter(),
            seq: Vec::new(),
            nz: Vec::new(),
        }
    }

    /// Total number of batches this iterator will yield.
    pub fn num_batches(&self) -> usize {
        self.num_batches
    }
}

impl Iterator for BatchIter<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        let plan = self.plans.next()?;
        let len = plan.seq_len;
        let mut users = Vec::with_capacity(plan.idxs.len());
        let mut items = Vec::with_capacity(plan.idxs.len() * len);
        let mut targets = Vec::with_capacity(plan.idxs.len());
        let mut noise = self
            .store
            .has_noise()
            .then(|| Vec::with_capacity(plan.idxs.len() * len));
        for &i in &plan.idxs {
            let r = self.refs[i];
            let p = r.prefix_len as usize;
            self.store.read_seq(r.user as usize, &mut self.seq);
            users.push(r.user as usize);
            items.extend_from_slice(&self.seq[..p]);
            targets.push(self.seq[p]);
            if let Some(nv) = noise.as_mut() {
                self.store.read_noise(r.user as usize, &mut self.nz);
                nv.extend_from_slice(&self.nz[..p]);
            }
        }
        Some(Batch {
            users,
            items,
            seq_len: len,
            targets,
            noise,
        })
    }
}

/// Anything the trainer can draw deterministic batch streams from: an owned
/// example list (the classical [`Split`](crate::interaction::Split) path) or
/// a store + plan pair (the out-of-core path). Both produce bit-identical
/// batches for the same `(batch_size, seed)`.
pub trait BatchSource {
    /// Number of examples behind this source.
    fn num_examples(&self) -> usize;
    /// Visit every batch of one epoch in order.
    fn for_each_batch(&self, batch_size: usize, seed: u64, f: &mut dyn FnMut(&Batch));
}

impl BatchSource for &[Example] {
    fn num_examples(&self) -> usize {
        self.len()
    }

    fn for_each_batch(&self, batch_size: usize, seed: u64, f: &mut dyn FnMut(&Batch)) {
        for b in make_batches(self, batch_size, seed) {
            f(&b);
        }
    }
}

/// An owned example list is a source as it stands, so the three vectors of
/// a [`Split`](crate::interaction::Split) reach the trainer by reference.
impl BatchSource for Vec<Example> {
    fn num_examples(&self) -> usize {
        self.len()
    }

    fn for_each_batch(&self, batch_size: usize, seed: u64, f: &mut dyn FnMut(&Batch)) {
        self.as_slice().for_each_batch(batch_size, seed, f)
    }
}

/// The out-of-core [`BatchSource`]: examples live in a [`SequenceStore`],
/// described by [`ExampleRef`]s.
pub struct StoreExamples<'a> {
    /// Backing store.
    pub store: &'a dyn SequenceStore,
    /// Example metadata.
    pub refs: &'a [ExampleRef],
}

impl BatchSource for StoreExamples<'_> {
    fn num_examples(&self) -> usize {
        self.refs.len()
    }

    fn for_each_batch(&self, batch_size: usize, seed: u64, f: &mut dyn FnMut(&Batch)) {
        for b in BatchIter::new(self.store, self.refs, batch_size, seed) {
            f(&b);
        }
    }
}

impl SplitPlan {
    /// The plan's train / valid / test parts as [`BatchSource`] views over
    /// `store`. Nothing is materialized: each view decodes its sequences
    /// batch by batch.
    pub fn views<'a>(&'a self, store: &'a dyn SequenceStore) -> [StoreExamples<'a>; 3] {
        [&self.train, &self.valid, &self.test].map(|refs| StoreExamples { store, refs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(user: usize, seq: &[usize], target: usize) -> Example {
        Example {
            user,
            seq: seq.to_vec(),
            target,
            noise: None,
        }
    }

    fn toy_examples() -> Vec<Example> {
        vec![
            ex(0, &[1, 2, 3], 4),
            ex(1, &[2, 3, 4], 5),
            ex(2, &[1, 2], 3),
            ex(3, &[5, 4, 3], 2),
            ex(4, &[2, 1], 5),
            ex(5, &[1, 2, 3, 4], 5),
        ]
    }

    #[test]
    fn batches_are_length_homogeneous() {
        let batches = make_batches(&toy_examples(), 2, 0);
        for b in &batches {
            assert_eq!(b.items.len(), b.len() * b.seq_len);
        }
        let total: usize = batches.iter().map(Batch::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn batch_size_respected() {
        let batches = make_batches(&toy_examples(), 2, 0);
        assert!(batches.iter().all(|b| b.len() <= 2));
    }

    #[test]
    fn every_example_appears_exactly_once() {
        let examples = toy_examples();
        let batches = make_batches(&examples, 4, 7);
        let mut seen = vec![false; examples.len()];
        for b in &batches {
            for i in 0..b.len() {
                let pos = examples
                    .iter()
                    .position(|e| {
                        e.user == b.users[i] && e.seq == b.seq(i) && e.target == b.targets[i]
                    })
                    .expect("batched example not found");
                assert!(!seen[pos], "duplicate example");
                seen[pos] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_varies_with_seed() {
        let a = make_batches(&toy_examples(), 2, 0);
        let b = make_batches(&toy_examples(), 2, 1);
        let order_a: Vec<Vec<usize>> = a.iter().map(|x| x.users.clone()).collect();
        let order_b: Vec<Vec<usize>> = b.iter().map(|x| x.users.clone()).collect();
        assert_ne!(order_a, order_b);
    }

    #[test]
    fn noise_flags_are_carried() {
        let examples = vec![Example {
            user: 0,
            seq: vec![1, 2, 3],
            target: 4,
            noise: Some(vec![false, true, false]),
        }];
        let batches = make_batches(&examples, 4, 0);
        assert_eq!(
            batches[0].noise.as_ref().unwrap(),
            &vec![false, true, false]
        );
    }
}
