//! Preprocessing pipeline matching the paper's §IV-A1:
//! 5-core filtering, maximum-length truncation, and the leave-one-out split.

use std::collections::HashMap;

use crate::interaction::{Dataset, Split};
use crate::store::{ExampleRef, SequenceStore, SplitPlan};

/// Iteratively drop items with frequency `< min_item_freq` and sequences
/// shorter than `min_seq_len`, until a fixed point (k-core filtering).
///
/// Item IDs are then re-indexed densely (`1..=num_items'`); the returned map
/// gives `old ID → new ID`.
pub fn k_core_filter(
    ds: &Dataset,
    min_seq_len: usize,
    min_item_freq: usize,
) -> (Dataset, HashMap<usize, usize>) {
    let mut sequences = ds.sequences.clone();
    let mut labels = ds.noise_labels.clone();

    loop {
        // Item frequency over surviving interactions.
        let mut freq: HashMap<usize, usize> = HashMap::new();
        for seq in &sequences {
            for &it in seq {
                *freq.entry(it).or_insert(0) += 1;
            }
        }
        let mut changed = false;

        // Drop infrequent items from each sequence.
        for (u, seq) in sequences.iter_mut().enumerate() {
            let keep: Vec<bool> = seq
                .iter()
                .map(|it| freq.get(it).copied().unwrap_or(0) >= min_item_freq)
                .collect();
            if keep.iter().any(|&k| !k) {
                changed = true;
                let mut new_seq = Vec::with_capacity(seq.len());
                let mut new_lab = Vec::new();
                for (i, &it) in seq.iter().enumerate() {
                    if keep[i] {
                        new_seq.push(it);
                        if let Some(l) = &labels {
                            new_lab.push(l[u][i]);
                        }
                    }
                }
                *seq = new_seq;
                if let Some(l) = &mut labels {
                    l[u] = new_lab;
                }
            }
        }

        // Empty sequences shorter than the threshold.
        for (u, seq) in sequences.iter_mut().enumerate() {
            if !seq.is_empty() && seq.len() < min_seq_len {
                changed = true;
                seq.clear();
                if let Some(l) = &mut labels {
                    l[u].clear();
                }
            }
        }

        if !changed {
            break;
        }
    }

    // Dense re-index of surviving items.
    let mut remap: HashMap<usize, usize> = HashMap::new();
    for seq in &sequences {
        for &it in seq {
            let next = remap.len() + 1;
            remap.entry(it).or_insert(next);
        }
    }
    for seq in sequences.iter_mut() {
        for it in seq.iter_mut() {
            *it = remap[it];
        }
    }

    let out = Dataset {
        name: ds.name.clone(),
        num_users: ds.num_users,
        num_items: remap.len(),
        sequences,
        noise_labels: labels,
    };
    debug_assert!(out.validate().is_ok());
    (out, remap)
}

/// Truncate each sequence to its most recent `max_len` interactions
/// (the paper uses 200 for ML-1M, 50 elsewhere).
pub fn truncate_to_max_len(ds: &mut Dataset, max_len: usize) {
    for (u, seq) in ds.sequences.iter_mut().enumerate() {
        if seq.len() > max_len {
            let cut = seq.len() - max_len;
            seq.drain(..cut);
            if let Some(l) = &mut ds.noise_labels {
                l[u].drain(..cut);
            }
        }
    }
}

/// Leave-one-out split (paper §IV-A1): for each user with `n ≥ min_len`
/// interactions, the last item is the test target, the second-to-last the
/// validation target, and training examples are built from earlier prefixes.
///
/// `max_train_prefixes` caps the number of autoregressive training examples
/// generated per user (most recent prefixes are kept), bounding epoch cost
/// for long-sequence profiles.
pub fn leave_one_out(ds: &Dataset, min_len: usize, max_train_prefixes: usize) -> Split {
    plan_leave_one_out(ds, min_len, max_train_prefixes).materialize(ds)
}

/// The leave-one-out split as metadata only: the example structure of
/// [`leave_one_out`] (same users, same prefix boundaries, same order), but
/// over any [`SequenceStore`] and without materializing a single item
/// vector — ~8 bytes per example instead of the full prefix.
/// [`leave_one_out`] is this plan, materialized.
pub fn plan_leave_one_out(
    store: &dyn SequenceStore,
    min_len: usize,
    max_train_prefixes: usize,
) -> SplitPlan {
    assert!(min_len >= 3, "leave-one-out needs ≥ 3 interactions");
    let mut plan = SplitPlan::default();
    for u in 0..store.num_users() {
        let n = store.seq_len(u);
        if n < min_len {
            continue;
        }
        let user = u as u32;
        plan.test.push(ExampleRef {
            user,
            prefix_len: (n - 1) as u32,
        });
        plan.valid.push(ExampleRef {
            user,
            prefix_len: (n - 2) as u32,
        });
        let last_t = n - 2;
        let first_t = 2usize.max(last_t.saturating_sub(max_train_prefixes));
        for t in first_t..last_t {
            plan.train.push(ExampleRef {
                user,
                prefix_len: t as u32,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn toy() -> Dataset {
        Dataset {
            name: "toy".into(),
            num_users: 3,
            num_items: 6,
            sequences: vec![
                vec![1, 2, 3, 1, 2, 3, 1, 2],
                vec![1, 2, 3, 2, 1, 3],
                vec![4, 5, 6, 4, 5], // items 4,5,6 appear ≤ 2 times
            ],
            noise_labels: None,
        }
    }

    #[test]
    fn k_core_removes_rare_items_and_reindexes() {
        let (out, remap) = k_core_filter(&toy(), 5, 3);
        // Items 4,5,6 (freq 2,2,1) die; user 2's sequence empties.
        assert!(out.sequences[2].is_empty());
        assert_eq!(out.num_items, 3);
        assert!(remap.len() == 3);
        // Surviving ids are dense 1..=3.
        for seq in &out.sequences {
            for &it in seq {
                assert!((1..=3).contains(&it));
            }
        }
    }

    #[test]
    fn k_core_reaches_fixed_point() {
        // Dropping items can shorten sequences below the threshold, which
        // must cascade.
        let ds = Dataset {
            name: "t".into(),
            num_users: 2,
            num_items: 4,
            sequences: vec![vec![1, 1, 1, 2, 3], vec![1, 1, 1, 1, 4]],
            noise_labels: None,
        };
        let (out, _) = k_core_filter(&ds, 5, 2);
        // 2,3,4 are singletons → dropped; both sequences fall under 5 → cleared.
        assert!(out.sequences.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn truncate_keeps_most_recent() {
        let mut ds = toy();
        truncate_to_max_len(&mut ds, 3);
        assert_eq!(ds.sequences[0], vec![3, 1, 2]);
        assert_eq!(ds.sequences[1], vec![2, 1, 3]);
    }

    #[test]
    fn truncate_aligns_labels() {
        let mut ds = toy();
        ds.noise_labels = Some(vec![
            vec![false, true, false, false, true, false, false, true],
            vec![false; 6],
            vec![true; 5],
        ]);
        truncate_to_max_len(&mut ds, 4);
        let l = ds.noise_labels.as_ref().unwrap();
        assert_eq!(l[0], vec![true, false, false, true]);
        assert_eq!(ds.sequences[0].len(), l[0].len());
    }

    #[test]
    fn leave_one_out_targets() {
        let split = leave_one_out(&toy(), 5, 100);
        // user 0: seq len 8 → test target s_8=2, valid target s_7=1
        assert_eq!(split.test[0].target, 2);
        assert_eq!(split.test[0].seq.len(), 7);
        assert_eq!(split.valid[0].target, 1);
        assert_eq!(split.valid[0].seq.len(), 6);
        // Training prefixes end strictly before the valid target.
        for ex in &split.train {
            assert!(ex.seq.len() >= 2);
        }
    }

    #[test]
    fn leave_one_out_respects_prefix_cap() {
        let split_all = leave_one_out(&toy(), 5, 100);
        let split_one = leave_one_out(&toy(), 5, 1);
        assert!(split_one.train.len() < split_all.train.len());
        // With cap 1, exactly one train example per eligible user.
        assert_eq!(split_one.train.len(), 3);
    }

    #[test]
    fn full_pipeline_on_synthetic() {
        let ds = SyntheticConfig::beauty().generate();
        let (mut filtered, _) = k_core_filter(&ds, 5, 5);
        truncate_to_max_len(&mut filtered, 50);
        let split = leave_one_out(&filtered, 5, 4);
        assert!(!split.train.is_empty());
        assert_eq!(split.valid.len(), split.test.len());
        // Noise labels flow through the pipeline.
        assert!(split.test[0].noise.is_some());
        for ex in split.train.iter().chain(&split.valid).chain(&split.test) {
            assert_eq!(ex.seq.len(), ex.noise.as_ref().unwrap().len());
            assert!(ex.seq.len() <= 50);
            assert!(ex.target >= 1 && ex.target <= filtered.num_items);
        }
    }
}
