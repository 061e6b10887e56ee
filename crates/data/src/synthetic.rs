//! Synthetic dataset generator reproducing the structure of the paper's five
//! evaluation datasets (Table II).
//!
//! ## Why synthetic
//!
//! The original datasets are large public downloads; on the single-CPU
//! reproduction box, full-size training is infeasible and network-gated. The
//! generator instead plants exactly the signals sequence-denoising methods
//! exploit, at a configurable scale:
//!
//! * **Sequential structure** — items belong to latent clusters; a sequence
//!   follows a Markov chain over clusters (high self-transition plus a ring
//!   topology), so "smooth sequentiality" is a real, learnable property.
//! * **Correlation structure** — users have a home cluster; most of their
//!   items are drawn from nearby clusters, so intra-sequence similarity is
//!   informative.
//! * **Popularity skew** — items are Zipf-distributed inside clusters,
//!   reproducing the long-tail that motivates the paper's user-relation
//!   sub-graphs.
//! * **Ground-truth noise** — a `noise_ratio` fraction of interactions is
//!   drawn uniformly at random and *labelled*, which real data cannot
//!   provide. This gives Fig. 1's over/under-denoising ratios an exact
//!   footing.

use std::path::Path;

use ssdrec_base::Rng;

use crate::colfile::{ColumnarSummary, ColumnarWriter};
use crate::format::FormatError;
use crate::interaction::Dataset;

/// Configuration for the cluster-Markov generator.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Profile name recorded on the generated [`Dataset`].
    pub name: String,
    /// Number of users.
    pub num_users: usize,
    /// Number of items (IDs `1..=num_items`).
    pub num_items: usize,
    /// Number of latent item clusters.
    pub num_clusters: usize,
    /// Mean sequence length (geometric-ish spread around this).
    pub avg_len: usize,
    /// Minimum sequence length generated.
    pub min_len: usize,
    /// Probability that a step stays in the current cluster.
    pub stay_prob: f64,
    /// Fraction of interactions replaced by uniform-random noise.
    pub noise_ratio: f64,
    /// Zipf exponent for within-cluster item popularity.
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    fn profile(name: &str, users: usize, items: usize, clusters: usize, avg: usize) -> Self {
        SyntheticConfig {
            name: name.into(),
            num_users: users,
            num_items: items,
            num_clusters: clusters,
            avg_len: avg,
            min_len: 5,
            stay_prob: 0.7,
            noise_ratio: 0.1,
            zipf_s: 1.1,
            seed: 20_24,
        }
    }

    /// ML-100K analogue: few users, dense, long sequences (Table II row 4).
    /// Rating-driven MovieLens histories are the noisiest of the five
    /// sources (bulk rating sessions), so the profile carries a higher
    /// noise ratio.
    pub fn ml100k() -> Self {
        let mut p = Self::profile("ml-100k-sim", 160, 150, 8, 42);
        p.noise_ratio = 0.18;
        p
    }

    /// ML-1M analogue: larger and denser still, the longest sequences.
    /// Carries the same elevated noise ratio as ML-100K (same source).
    pub fn ml1m() -> Self {
        let mut p = Self::profile("ml-1m-sim", 240, 250, 10, 60);
        p.noise_ratio = 0.18;
        p
    }

    /// Amazon-Beauty analogue: sparse, short sequences (avg ≈ 9).
    pub fn beauty() -> Self {
        Self::profile("beauty-sim", 320, 260, 10, 9)
    }

    /// Amazon-Sports analogue: the sparsest, shortest sequences.
    pub fn sports() -> Self {
        Self::profile("sports-sim", 380, 300, 10, 8)
    }

    /// Yelp analogue: sparse with slightly longer sequences (avg ≈ 10).
    pub fn yelp() -> Self {
        Self::profile("yelp-sim", 340, 320, 12, 10)
    }

    /// The paper profile called `name` on every command line (`beauty`,
    /// `sports`, `yelp`, `ml-100k`, `ml-1m`); `None` for anything else.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "beauty" => Some(Self::beauty()),
            "sports" => Some(Self::sports()),
            "yelp" => Some(Self::yelp()),
            "ml-100k" => Some(Self::ml100k()),
            "ml-1m" => Some(Self::ml1m()),
            _ => None,
        }
    }

    /// All five paper profiles, in the paper's order.
    pub fn all_profiles() -> Vec<Self> {
        vec![
            Self::beauty(),
            Self::sports(),
            Self::yelp(),
            Self::ml100k(),
            Self::ml1m(),
        ]
    }

    /// Scale user/item counts by `f` (for quick tests or larger runs).
    pub fn scaled(mut self, f: f64) -> Self {
        self.num_users = ((self.num_users as f64 * f) as usize).max(8);
        self.num_items = ((self.num_items as f64 * f) as usize).max(16);
        self
    }

    /// Override the injected-noise fraction.
    pub fn with_noise_ratio(mut self, r: f64) -> Self {
        self.noise_ratio = r;
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Item-to-cluster assignment tables shared by [`SyntheticConfig::generate`]
    /// and [`SyntheticConfig::generate_to`]: round-robin cluster membership
    /// plus Zipf popularity weights within each cluster.
    fn cluster_tables(&self) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        assert!(self.num_clusters >= 2, "need at least 2 clusters");
        assert!(
            self.num_items >= self.num_clusters,
            "more clusters than items"
        );
        let mut cluster_items: Vec<Vec<usize>> = vec![Vec::new(); self.num_clusters];
        for item in 1..=self.num_items {
            cluster_items[(item - 1) % self.num_clusters].push(item);
        }
        let cluster_weights: Vec<Vec<f64>> = cluster_items
            .iter()
            .map(|items| {
                (1..=items.len())
                    .map(|r| 1.0 / (r as f64).powf(self.zipf_s))
                    .collect()
            })
            .collect();
        (cluster_items, cluster_weights)
    }

    /// Sample user `u`'s sequence and noise labels into `seq`/`lab`
    /// (cleared first). Both generation paths call this with the same RNG in
    /// the same per-user order, so their outputs are identical.
    fn sample_user(
        &self,
        u: usize,
        rng: &mut Rng,
        cluster_items: &[Vec<usize>],
        cluster_weights: &[Vec<f64>],
        seq: &mut Vec<usize>,
        lab: &mut Vec<bool>,
    ) {
        // Spread of lengths: uniform in [min_len, 2*avg_len - min_len],
        // so the mean is ~avg_len.
        let hi = (2 * self.avg_len)
            .saturating_sub(self.min_len)
            .max(self.min_len + 1);
        let len = rng.between(self.min_len, hi);

        let mut cluster = u % self.num_clusters; // user's home cluster
        seq.clear();
        lab.clear();
        seq.reserve(len);
        lab.reserve(len);
        for _ in 0..len {
            if rng.bernoulli(self.noise_ratio) {
                // Uniform-random accidental interaction.
                seq.push(rng.between(1, self.num_items));
                lab.push(true);
                continue;
            }
            if !rng.bernoulli(self.stay_prob) {
                // Ring topology: mostly advance to the next cluster,
                // occasionally jump back.
                cluster = if rng.bernoulli(0.8) {
                    (cluster + 1) % self.num_clusters
                } else {
                    (cluster + self.num_clusters - 1) % self.num_clusters
                };
            }
            let idx = rng.weighted_index_f64(&cluster_weights[cluster]);
            seq.push(cluster_items[cluster][idx]);
            lab.push(false);
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let (cluster_items, cluster_weights) = self.cluster_tables();
        let mut rng = Rng::seed(self.seed);

        let mut sequences = Vec::with_capacity(self.num_users);
        let mut labels = Vec::with_capacity(self.num_users);
        let mut seq = Vec::new();
        let mut lab = Vec::new();
        for u in 0..self.num_users {
            self.sample_user(
                u,
                &mut rng,
                &cluster_items,
                &cluster_weights,
                &mut seq,
                &mut lab,
            );
            sequences.push(seq.clone());
            labels.push(lab.clone());
        }

        let ds = Dataset {
            name: self.name.clone(),
            num_users: self.num_users,
            num_items: self.num_items,
            sequences,
            noise_labels: Some(labels),
        };
        debug_assert!(ds.validate().is_ok());
        ds
    }

    /// Stream the dataset straight into a columnar file at `path` without
    /// ever holding more than one user's sequence in RAM.
    ///
    /// The RNG draw sequence is identical to [`SyntheticConfig::generate`],
    /// so the produced file is byte-identical to
    /// `encode_dataset(&cfg.generate(), path)` — pinned by the property
    /// suite — while peak memory stays flat in the user count.
    pub fn generate_to(&self, path: impl AsRef<Path>) -> Result<ColumnarSummary, FormatError> {
        let (cluster_items, cluster_weights) = self.cluster_tables();
        let mut rng = Rng::seed(self.seed);

        let mut w = ColumnarWriter::create(path, &self.name, self.num_items, true, false)?;
        let mut seq = Vec::new();
        let mut lab = Vec::new();
        for u in 0..self.num_users {
            self.sample_user(
                u,
                &mut rng,
                &cluster_items,
                &cluster_weights,
                &mut seq,
                &mut lab,
            );
            w.push_user(&seq, Some(&lab), None)?;
        }
        w.finish()
    }
}

/// The latent cluster of an item under the generator's round-robin scheme
/// (exposed for tests and the case-study binary).
pub fn item_cluster(item: usize, num_clusters: usize) -> usize {
    assert!(item >= 1, "pad item has no cluster");
    (item - 1) % num_clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_dataset() {
        let ds = SyntheticConfig::beauty().generate();
        ds.validate().unwrap();
        assert_eq!(ds.num_users, 320);
        assert!(ds.sequences.iter().all(|s| s.len() >= 5));
    }

    #[test]
    fn by_name_resolves_the_five_cli_names_and_nothing_else() {
        for (name, want) in [
            ("beauty", "beauty-sim"),
            ("sports", "sports-sim"),
            ("yelp", "yelp-sim"),
            ("ml-100k", "ml-100k-sim"),
            ("ml-1m", "ml-1m-sim"),
        ] {
            assert_eq!(SyntheticConfig::by_name(name).unwrap().name, want);
        }
        assert!(SyntheticConfig::by_name("imaginary").is_none());
        assert!(SyntheticConfig::by_name("Beauty").is_none());
    }

    #[test]
    fn avg_len_close_to_profile() {
        let cfg = SyntheticConfig::ml100k();
        let ds = cfg.generate();
        let avg = ds.avg_len();
        assert!(
            (avg - cfg.avg_len as f64).abs() < cfg.avg_len as f64 * 0.25,
            "avg {avg} vs target {}",
            cfg.avg_len
        );
    }

    #[test]
    fn noise_fraction_close_to_config() {
        let ds = SyntheticConfig::ml1m().with_noise_ratio(0.2).generate();
        let labels = ds.noise_labels.as_ref().unwrap();
        let total: usize = labels.iter().map(|l| l.len()).sum();
        let noisy: usize = labels
            .iter()
            .map(|l| l.iter().filter(|&&b| b).count())
            .sum();
        let frac = noisy as f64 / total as f64;
        assert!((frac - 0.2).abs() < 0.03, "noise fraction {frac}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticConfig::yelp().generate();
        let b = SyntheticConfig::yelp().generate();
        assert_eq!(a.sequences, b.sequences);
        let c = SyntheticConfig::yelp().with_seed(1).generate();
        assert_ne!(a.sequences, c.sequences);
    }

    #[test]
    fn clean_steps_are_cluster_coherent() {
        // Consecutive non-noise items should mostly be in the same or an
        // adjacent cluster — the planted sequential signal.
        let cfg = SyntheticConfig::ml100k().with_noise_ratio(0.0);
        let ds = cfg.generate();
        let k = cfg.num_clusters;
        let mut coherent = 0usize;
        let mut total = 0usize;
        for seq in &ds.sequences {
            for w in seq.windows(2) {
                let (a, b) = (item_cluster(w[0], k), item_cluster(w[1], k));
                let diff = (b + k - a) % k;
                if diff == 0 || diff == 1 || diff == k - 1 {
                    coherent += 1;
                }
                total += 1;
            }
        }
        let frac = coherent as f64 / total as f64;
        assert!(frac > 0.95, "cluster coherence only {frac}");
    }

    #[test]
    fn popularity_is_skewed() {
        let ds = SyntheticConfig::sports().generate();
        let mut freq = ds.item_frequencies();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freq.iter().take(ds.num_items / 10).sum();
        let total: usize = freq.iter().sum();
        assert!(
            top10 as f64 > total as f64 * 0.3,
            "top-10% items hold {top10}/{total}"
        );
    }

    #[test]
    fn scaled_changes_counts() {
        let cfg = SyntheticConfig::beauty().scaled(0.5);
        assert_eq!(cfg.num_users, 160);
        assert_eq!(cfg.num_items, 130);
    }

    #[test]
    fn sparsity_ordering_matches_paper() {
        // Amazon/Yelp profiles must be much sparser than MovieLens profiles,
        // mirroring Table II.
        let dense = SyntheticConfig::ml100k().generate().sparsity();
        let sparse = SyntheticConfig::sports().generate().sparsity();
        assert!(
            sparse > dense,
            "sports {sparse} should exceed ml100k {dense}"
        );
    }
}
