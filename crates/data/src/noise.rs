//! Noise injection for the Fig. 1 OUP experiment.
//!
//! The paper randomly inserts *unobserved* interactions into raw short
//! sequences and measures (a) how many inserted items a denoiser keeps
//! (under-denoising) and (b) how many raw items it drops (over-denoising).

use ssdrec_base::Rng;
use std::collections::HashSet;

use crate::interaction::Dataset;

/// Insert `per_seq` random unobserved items into each sequence no longer
/// than `short_len`, labelling every inserted position as noise. Existing
/// labels (if any) are preserved for original positions.
pub fn inject_unobserved(ds: &Dataset, short_len: usize, per_seq: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed(seed);
    let mut sequences = Vec::with_capacity(ds.sequences.len());
    let mut labels = Vec::with_capacity(ds.sequences.len());

    for (u, seq) in ds.sequences.iter().enumerate() {
        let base_labels: Vec<bool> = match &ds.noise_labels {
            Some(l) => l[u].clone(),
            None => vec![false; seq.len()],
        };
        if seq.is_empty() || seq.len() > short_len {
            sequences.push(seq.clone());
            labels.push(base_labels);
            continue;
        }
        let observed: HashSet<usize> = seq.iter().copied().collect();
        let mut new_seq: Vec<usize> = seq.clone();
        let mut new_lab = base_labels;
        for _ in 0..per_seq {
            // Find an unobserved item; give up gracefully if the user has
            // seen (almost) everything.
            let mut item = None;
            for _ in 0..50 {
                let cand = rng.between(1, ds.num_items);
                if !observed.contains(&cand) {
                    item = Some(cand);
                    break;
                }
            }
            let Some(item) = item else { break };
            let pos = rng.between(0, new_seq.len());
            new_seq.insert(pos, item);
            new_lab.insert(pos, true);
        }
        sequences.push(new_seq);
        labels.push(new_lab);
    }

    let out = Dataset {
        name: format!("{}+noise", ds.name),
        num_users: ds.num_users,
        num_items: ds.num_items,
        sequences,
        noise_labels: Some(labels),
    };
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn toy() -> Dataset {
        Dataset {
            name: "toy".into(),
            num_users: 2,
            num_items: 20,
            sequences: vec![vec![1, 2, 3], vec![4; 10]],
            noise_labels: None,
        }
    }

    #[test]
    fn inserts_into_short_sequences_only() {
        let out = inject_unobserved(&toy(), 5, 2, 0);
        assert_eq!(out.sequences[0].len(), 5);
        assert_eq!(out.sequences[1].len(), 10); // longer than short_len, untouched
    }

    #[test]
    fn inserted_items_are_unobserved_and_labelled() {
        let base = toy();
        let out = inject_unobserved(&base, 5, 2, 1);
        let labels = out.noise_labels.as_ref().unwrap();
        for (i, (&it, &lab)) in out.sequences[0].iter().zip(&labels[0]).enumerate() {
            if lab {
                assert!(
                    !base.sequences[0].contains(&it),
                    "pos {i}: inserted item was observed"
                );
            }
        }
        assert_eq!(labels[0].iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn original_order_preserved() {
        let out = inject_unobserved(&toy(), 5, 3, 2);
        let originals: Vec<usize> = out.sequences[0]
            .iter()
            .zip(out.noise_labels.as_ref().unwrap()[0].iter())
            .filter(|(_, &lab)| !lab)
            .map(|(&it, _)| it)
            .collect();
        assert_eq!(originals, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = inject_unobserved(&toy(), 5, 2, 9);
        let b = inject_unobserved(&toy(), 5, 2, 9);
        assert_eq!(a.sequences, b.sequences);
    }

    #[test]
    fn composes_with_synthetic_labels() {
        let ds = SyntheticConfig::beauty().with_noise_ratio(0.1).generate();
        let out = inject_unobserved(&ds, 12, 2, 3);
        out.validate().unwrap();
        // Inserted noise adds to (not replaces) generator noise labels.
        let before: usize = ds
            .noise_labels
            .as_ref()
            .unwrap()
            .iter()
            .map(|l| l.iter().filter(|&&b| b).count())
            .sum();
        let after: usize = out
            .noise_labels
            .as_ref()
            .unwrap()
            .iter()
            .map(|l| l.iter().filter(|&&b| b).count())
            .sum();
        assert!(after > before);
    }
}
