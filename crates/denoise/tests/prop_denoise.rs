//! Property-based tests of the shared denoising machinery (the sixth
//! property suite), running on the in-workspace `ssdrec-testkit` framework.

use ssdrec_testkit::{gens, property};

use ssdrec_data::Example;
use ssdrec_denoise::{keep_each, relative_keep, Denoiser, FmlpRec, Keep, Mgsd, RELATIVE_KEEP_BETA};

/// One history's keep output through the batched path.
fn keep_one(model: &impl Denoiser, seq: &[usize], user: usize) -> Keep {
    let ex = Example {
        user,
        seq: seq.to_vec(),
        target: 1,
        noise: None,
    };
    keep_each(model, &[ex]).remove(0)
}

property! {
    cases = 64;

    /// One keep decision per position, and the empty sequence maps to the
    /// empty decision vector.
    fn relative_keep_preserves_length(scores in gens::vecs(gens::f32s(0.0, 1.0), 0, 24)) {
        let kept = relative_keep(&scores, RELATIVE_KEEP_BETA);
        assert_eq!(kept.len(), scores.len());
    }

    /// The decision is invariant to positive rescaling of the scores —
    /// the property that makes the rule robust to sigmoid-product
    /// calibration drift.
    fn relative_keep_scale_invariant(
        scores in gens::vecs(gens::f32s(0.01, 1.0), 1, 19),
        scale in gens::f32s(0.05, 20.0),
    ) {
        let scaled: Vec<f32> = scores.iter().map(|s| s * scale).collect();
        assert_eq!(
            relative_keep(&scores, RELATIVE_KEEP_BETA),
            relative_keep(&scaled, RELATIVE_KEEP_BETA),
        );
    }

    /// Uniform scores are all kept for any beta ≤ 1: no position sits below
    /// the sequence's own mean.
    fn relative_keep_uniform_keeps_all(
        s in gens::f32s(0.01, 1.0),
        len in gens::usizes(1, 20),
        beta in gens::f32s(0.0, 1.0),
    ) {
        let kept = relative_keep(&vec![s; len], beta);
        assert!(kept.iter().all(|&k| k));
    }

    /// Lowering beta only ever keeps more: the kept set is monotone
    /// (anti-monotone in the threshold).
    fn relative_keep_monotone_in_beta(
        scores in gens::vecs(gens::f32s(0.0, 1.0), 1, 19),
        b_lo in gens::f32s(0.0, 0.5),
        b_hi in gens::f32s(0.5, 1.0),
    ) {
        let loose = relative_keep(&scores, b_lo);
        let strict = relative_keep(&scores, b_hi);
        for (l, s) in loose.iter().zip(&strict) {
            assert!(*l || !*s, "kept under strict beta but dropped under loose");
        }
    }

    /// The best-scored position always survives for beta ≤ 1 (max ≥ mean ≥
    /// beta·mean on non-negative scores).
    fn relative_keep_never_drops_argmax(
        scores in gens::vecs(gens::f32s(0.0, 1.0), 1, 19),
        beta in gens::f32s(0.0, 1.0),
    ) {
        let kept = relative_keep(&scores, beta);
        let argmax = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(kept[argmax]);
    }

    /// Implicit denoisers (FMLP-Rec) keep every position by construction and
    /// report unit keep scores — the contract the OUP measurement relies on.
    fn implicit_denoiser_keeps_everything(
        seq in gens::vecs(gens::usizes(1, 12), 0, 9),
        user in gens::usizes(0, 4),
        seed in gens::u64s(),
    ) {
        let model = FmlpRec::new(12, 4, 10, 1, seed);
        let Keep { scores, kept } = keep_one(&model, &seq, user);
        assert_eq!(kept.len(), seq.len());
        assert!(kept.iter().all(|&k| k));
        assert!(scores.iter().all(|&s| s == 1.0));
    }

    /// The multi-granularity denoiser yields one finite keep probability in
    /// (0, 1] per position (a product of two sigmoids), one decision per
    /// position, and maps the empty sequence to empty outputs.
    fn mgsd_scores_are_positional_probabilities(
        seq in gens::vecs(gens::usizes(1, 12), 0, 9),
        user in gens::usizes(0, 4),
        seed in gens::u64s(),
    ) {
        let model = Mgsd::new(5, 12, 4, 10, seed);
        let Keep { scores, kept } = keep_one(&model, &seq, user);
        assert_eq!(scores.len(), seq.len());
        assert!(scores.iter().all(|s| s.is_finite() && *s > 0.0 && *s <= 1.0));
        assert_eq!(kept.len(), seq.len());
    }

    /// Segment-level attenuation is shared within a segment, so scores can
    /// only differ across positions through the item-level head — and the
    /// relative-keep rule always preserves the argmax position.
    fn mgsd_never_drops_best_position(
        seq in gens::vecs(gens::usizes(1, 12), 1, 9),
        user in gens::usizes(0, 4),
        seed in gens::u64s(),
    ) {
        let model = Mgsd::new(5, 12, 4, 10, seed);
        let Keep { scores, kept } = keep_one(&model, &seq, user);
        let argmax = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(kept[argmax]);
    }
}
