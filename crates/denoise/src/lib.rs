//! # ssdrec-denoise
//!
//! The five denoising / debiasing baselines the paper compares against
//! (Table IV): FMLP-Rec (implicit), DSAN, HSD, STEAM (explicit), and DCRec
//! (debiased contrastive) — plus the post-paper [`Mgsd`] (MGSD-WSS), a
//! multi-granularity denoiser whose gate is weakly supervised by the
//! synthetic generator's noise labels (DESIGN.md §5.4). All implement the
//! shared [`RecModel`] trainer interface plus the [`Denoiser`] trait, whose
//! one batched keep output feeds the Fig. 1 OUP experiment.

#![warn(missing_docs)]

use ssdrec_data::{Batch, Example};
use ssdrec_models::{per_example, RecModel};
use ssdrec_tensor::{Binding, Graph, Var};

pub mod dcrec;
pub mod dsan;
pub mod fmlp;
pub mod hsd;
pub mod mgsd;
pub mod steam;

pub use dcrec::DcRec;
pub use dsan::Dsan;
pub use fmlp::FmlpRec;
pub use hsd::{Hsd, HsdCore, TauSchedule};
pub use mgsd::Mgsd;
pub use steam::Steam;

/// A model that makes (or declines to make) explicit keep/drop decisions
/// over its input sequences — the interface the OUP measurement, the Fig. 4
/// drop ratio and `ssdrec denoise` drive through [`keep_each`].
pub trait Denoiser: RecModel {
    /// The keep output of every row of `batch`, in row order, on the frozen
    /// eval pass: `frozen` is what [`RecModel::precompute_frozen`] returned
    /// on `g` (SSDRec reads its relation-encoded tables from it; the
    /// baselines freeze nothing). Each model applies its own decision rule
    /// to the same scores it reports.
    fn keep(&self, g: &mut Graph, bind: &Binding, batch: &Batch, frozen: &[Var]) -> Vec<Keep>;
}

/// One sequence's keep output.
#[derive(Clone, Debug, Default)]
pub struct Keep {
    /// Continuous keep score per position (higher = more likely kept);
    /// implicit methods report all ones. Used for threshold-free
    /// diagnostics like noise/clean score separation.
    pub scores: Vec<f32>,
    /// Keep (true) / drop (false) per position.
    pub kept: Vec<bool>,
}

impl Keep {
    /// The rows of a `B×T` keep-score matrix, each decided by
    /// [`relative_keep`] at `beta`.
    pub fn relative_rows(scores: &[f32], t: usize, beta: f32) -> Vec<Keep> {
        scores
            .chunks(t)
            .map(|row| Keep {
                scores: row.to_vec(),
                kept: relative_keep(row, beta),
            })
            .collect()
    }

    /// Every position of every row of `batch` kept with a unit score: the
    /// output of a method that never removes an item.
    pub fn all(batch: &Batch) -> Vec<Keep> {
        let t = batch.seq_len;
        (0..batch.len())
            .map(|_| Keep {
                scores: vec![1.0; t],
                kept: vec![true; t],
            })
            .collect()
    }
}

/// The keep output of every example, in `examples` order, from one
/// [`per_example`] pass of [`Denoiser::keep`]. An empty history gets an
/// empty [`Keep`].
pub fn keep_each<M: Denoiser + ?Sized>(model: &M, examples: &[Example]) -> Vec<Keep> {
    per_example(model, examples, |g, bind, batch, frozen| {
        model.keep(g, bind, batch, frozen)
    })
}

/// Relative keep rule shared by the explicit denoisers: a position is
/// dropped when its keep score falls well below the sequence's own mean
/// (`score < beta * mean`). This makes the decision invariant to the
/// absolute calibration of the score (a product of sigmoids concentrates
/// wherever its priors put it) while preserving the ordering the model
/// learned.
pub fn relative_keep(scores: &[f32], beta: f32) -> Vec<bool> {
    if scores.is_empty() {
        return Vec::new();
    }
    let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
    let threshold = beta * mean;
    scores.iter().map(|&s| s >= threshold).collect()
}

/// The default `beta` used by [`relative_keep`] across the workspace.
pub const RELATIVE_KEEP_BETA: f32 = 0.6;

/// The default calibration sharpness κ of [`HsdCore::calibrate`], the
/// training-time counterpart of [`RELATIVE_KEEP_BETA`].
pub const RELATIVE_KEEP_KAPPA: f32 = 8.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_keep_drops_outliers_only() {
        let scores = [0.5, 0.5, 0.1, 0.5];
        let kept = relative_keep(&scores, 0.95);
        assert_eq!(kept, vec![true, true, false, true]);
    }

    #[test]
    fn relative_keep_is_scale_invariant() {
        let a = [0.5, 0.5, 0.1, 0.5];
        let b: Vec<f32> = a.iter().map(|x| x * 0.01).collect();
        assert_eq!(relative_keep(&a, 0.95), relative_keep(&b, 0.95));
    }

    #[test]
    fn relative_keep_uniform_keeps_all() {
        let kept = relative_keep(&[0.3; 6], 0.95);
        assert!(kept.iter().all(|&k| k));
    }

    #[test]
    fn relative_keep_empty() {
        assert!(relative_keep(&[], 0.95).is_empty());
    }
}

/// The oracle wall every denoiser's tests run: [`keep_each`] against that
/// model's per-sequence keep code, kept verbatim in its test module.
#[cfg(test)]
pub(crate) mod wall {
    use super::*;

    /// Histories of every length in {0, 1, 2, 3, 7, 12, 50}, nine of them
    /// of length 7 (one whole 8-row panel and a partial one), over users
    /// `0..num_users` and items `1..=num_items`.
    pub(crate) fn mixed_examples(num_users: usize, num_items: usize) -> Vec<Example> {
        let mut lens = vec![1, 2, 7, 7, 7, 3, 7, 12, 0, 7, 7, 50];
        lens.extend([7; 3]);
        lens.iter()
            .enumerate()
            .map(|(i, &len)| Example {
                user: i % num_users,
                seq: (0..len).map(|j| (i * 7 + j * 3) % num_items + 1).collect(),
                target: 1,
                noise: None,
            })
            .collect()
    }

    /// Every example's batched keep output equals `oracle(seq, user)`'s
    /// `(scores, decisions)` bit for bit, and an empty history gets an
    /// empty row.
    pub(crate) fn assert_keep_matches<M: Denoiser>(
        model: &M,
        examples: &[Example],
        oracle: impl Fn(&[usize], usize) -> (Vec<f32>, Vec<bool>),
    ) {
        let rows = keep_each(model, examples);
        assert_eq!(rows.len(), examples.len());
        for (ex, row) in examples.iter().zip(&rows) {
            let (scores, kept) = if ex.seq.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                oracle(&ex.seq, ex.user)
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&row.scores), bits(&scores), "scores of {:?}", ex.seq);
            assert_eq!(row.kept, kept, "decisions of {:?}", ex.seq);
            assert!(row.scores.iter().all(|s| s.is_finite()));
        }
    }
}
