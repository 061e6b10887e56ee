//! Deterministic random-number generation for the whole workspace.
//!
//! # Stream-stability contract
//!
//! The generator is **frozen**: `xoshiro256**` seeded through `SplitMix64`,
//! with the draw algorithms below implemented in this file and nowhere else.
//! The same seed produces the same draw sequence on every platform and across
//! PRs — golden tests (exact metric values, checkpoint round-trips) depend on
//! it. Changing the core generator, the seeding scheme, or the order in which
//! any sampling helper consumes raw `u64`s is a **breaking change** that
//! invalidates every recorded experiment in `results/` and must be called out
//! in `CHANGES.md` together with refreshed golden values.
//!
//! Within that contract:
//!
//! * [`Rng::seed`] expands a 64-bit seed into the 256-bit xoshiro state with
//!   SplitMix64 (the construction recommended by the xoshiro authors), so
//!   nearby seeds (0, 1, 2, …) still give well-separated streams.
//! * [`Rng::split`] derives an independent child stream by seeding a fresh
//!   generator from the parent's next draw; parent and child may afterwards be
//!   drawn from in any order without affecting each other.
//! * Every helper documents how many raw draws it consumes so that call sites
//!   can reason about stream alignment.

/// SplitMix64 step: the seed-expansion PRNG (public for tests and for hashing
/// small keys into seeds).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded `xoshiro256**` generator with the sampling helpers the workspace
/// needs. Not cryptographic; excellent statistical quality for simulation.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A new deterministic generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Rng { s }
    }

    /// The next raw 64-bit draw (`xoshiro256**` scrambler). One draw.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derive an independent child generator (one draw from the parent).
    /// Useful for giving each module its own stream without coupling draw
    /// orders.
    pub fn split(&mut self) -> Rng {
        Rng::seed(self.next_u64())
    }

    /// The raw 256-bit generator state, for checkpointing. Restoring it with
    /// [`Rng::from_state`] resumes the draw sequence exactly where it left
    /// off (no draws are consumed by either call).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a state captured with [`Rng::state`].
    pub fn from_state(s: [u64; 4]) -> Rng {
        assert!(s != [0; 4], "xoshiro256** state must not be all-zero");
        Rng { s }
    }

    /// Uniform `f32` in `[0, 1)` from the top 24 bits. One draw.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits. One draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_f64: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via rejection sampling (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        // Reject draws from the incomplete top interval so every residue is
        // equally likely.
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Uniform integer in the **inclusive** range `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "between: empty range [{lo}, {hi}]");
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal via Box–Muller (two draws).
    pub fn normal(&mut self) -> f32 {
        let u1 = f32::EPSILON.max(self.next_f32());
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Standard Gumbel(0,1) sample: `−ln(−ln U)`. One draw.
    ///
    /// No product code calls it: `gumbel_softmax` draws its noise a whole
    /// vector at a time. It stays as the scalar oracle of that noise —
    /// `noise_draws_the_stream_rng_gumbel_draws` pins the vectorised draws
    /// to this one's place in the stream.
    pub fn gumbel(&mut self) -> f32 {
        let u = f32::EPSILON.max(self.next_f32());
        -(-u.ln()).ln()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`). One draw.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// An inverted-dropout mask: each element is `0` with probability `p`,
    /// else `1/(1-p)`. `len` draws.
    pub fn dropout_mask(&mut self, len: usize, p: f32) -> Vec<f32> {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let keep = 1.0 - p;
        (0..len)
            .map(|_| if self.next_f32() < p { 0.0 } else { 1.0 / keep })
            .collect()
    }

    /// Fisher–Yates shuffle (`len-1` draws, independent of element values).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element of a non-empty slice. One draw.
    pub fn choice<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choice on empty slice");
        &xs[self.below(xs.len())]
    }

    /// Sample an index from unnormalised non-negative `f32` weights.
    ///
    /// # Panics
    /// Panics if all weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(
            total > 0.0 && !weights.is_empty(),
            "weighted_index on empty/zero weights"
        );
        let mut r = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        weights.len() - 1
    }

    /// Sample an index from unnormalised non-negative `f64` weights.
    ///
    /// # Panics
    /// Panics if all weights are zero or the slice is empty.
    pub fn weighted_index_f64(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && !weights.is_empty(),
            "weighted_index_f64 on empty/zero weights"
        );
        let mut r = self.uniform_f64(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed(7);
        let mut b = Rng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn golden_stream_is_frozen() {
        // First three raw draws for seed 0 — the stream-stability contract in
        // concrete numbers. If this test fails, the generator changed and
        // every recorded experiment is invalid.
        let mut r = Rng::seed(0);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768
            ]
        );
    }

    #[test]
    fn seeds_give_distinct_streams() {
        let mut a = Rng::seed(1);
        let mut b = Rng::seed(2);
        let da: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let db: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Rng::seed(3);
        let mut child = parent.split();
        // Draw orders must not couple: interleaving produces the same child
        // sequence as drawing the child alone.
        let solo: Vec<u64> = {
            let mut p = Rng::seed(3);
            let mut c = p.split();
            (0..6).map(|_| c.next_u64()).collect()
        };
        let mut interleaved = Vec::new();
        for _ in 0..6 {
            parent.next_u64();
            interleaved.push(child.next_u64());
        }
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng::seed(11);
        for _ in 0..1000 {
            let x = r.uniform(-2.5, 4.0);
            assert!((-2.5..4.0).contains(&x));
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = Rng::seed(5);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn between_is_inclusive() {
        let mut r = Rng::seed(6);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..500 {
            let v = r.between(3, 5);
            assert!((3..=5).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 5;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_var() {
        let mut r = Rng::seed(42);
        let xs: Vec<f32> = (0..20_000).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gumbel_mean_near_euler_mascheroni() {
        let mut r = Rng::seed(3);
        let n = 20_000;
        let mean = (0..n).map(|_| r.gumbel()).sum::<f32>() / n as f32;
        assert!((mean - 0.5772).abs() < 0.05, "gumbel mean {mean}");
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut r = Rng::seed(8);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn dropout_mask_scales_kept() {
        let mut r = Rng::seed(1);
        let m = r.dropout_mask(1_000, 0.5);
        assert!(m.iter().all(|&x| x == 0.0 || (x - 2.0).abs() < 1e-6));
        let kept = m.iter().filter(|&&x| x > 0.0).count();
        assert!((300..700).contains(&kept));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed(5);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choice_is_uniformish() {
        let mut r = Rng::seed(13);
        let xs = [10, 20, 30];
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[(*r.choice(&xs) / 10 - 1) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (700..1_300).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::seed(9);
        let mut counts = [0usize; 3];
        for _ in 0..6_000 {
            counts[r.weighted_index(&[1.0, 0.0, 2.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0]);
        let mut counts64 = [0usize; 2];
        for _ in 0..2_000 {
            counts64[r.weighted_index_f64(&[3.0, 1.0])] += 1;
        }
        assert!(counts64[0] > counts64[1]);
    }
}
