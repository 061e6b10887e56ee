//! The frozen input sizes. The driver passes them to the CLI as flags; the
//! probes build the same inputs in process from the same numbers. Changing
//! one changes what every recorded number means.

use crate::json::Json;

/// Every size a workload or probe needs. Scales and dims are kept as the
/// strings the CLI receives, so flag and in-process value cannot drift.
#[derive(Debug)]
pub struct Sizes {
    /// `train_ssdrec`: beauty profile scale.
    pub train_scale: &'static str,
    /// `train_ssdrec`: scale of the warm-up run that is its set-up.
    pub train_warm_scale: &'static str,
    /// `train_ssdrec`: embedding width.
    pub train_dim: &'static str,
    /// `train_ssdrec`: epochs per operation (augmentation is active from
    /// the second).
    pub train_epochs: usize,
    /// `train_ssdrec`: HR@10 must reach this multiple of a random ranking's.
    pub train_hr_factor: f64,
    /// `data_to_train`: beauty profile scale of the generated corpus.
    pub data_scale: &'static str,
    /// `data_to_train`: scale of the warm-up operation.
    pub data_warm_scale: &'static str,
    /// `data_to_train`: embedding width of the bare SASRec.
    pub data_dim: &'static str,
    /// `data_to_train`: HR@10 must reach this multiple of a random ranking's.
    pub data_hr_factor: f64,
    /// `serve_*`: beauty profile scale behind the served checkpoint.
    pub serve_scale: &'static str,
    /// `serve_*`: embedding width.
    pub serve_dim: &'static str,
    /// `serve_*`: model max sequence length; requests are 5..=this long.
    pub serve_max_len: usize,
    /// `serve_*`: distinct requests in the pool (above the 1024-user cache).
    pub serve_pool: usize,
    /// `serve_*`: untimed warm-up under load, seconds.
    pub serve_warm_s: f64,
    /// `online_loop`: beauty profile scale of the bulk-loaded log.
    pub online_scale: &'static str,
    /// `online_loop`: embedding width.
    pub online_dim: &'static str,
    /// `online_loop`: model max sequence length.
    pub online_max_len: usize,
    /// `online_loop`: distinct reader requests.
    pub online_pool: usize,
    /// `probe_ann`: rows of the seeded item table (the index build costs
    /// about a third of a millisecond per row, which caps it).
    pub ann_items: usize,
    /// `probe_ann`: queries.
    pub ann_queries: usize,
    /// Fewest timed operations (rounds) a batch workload runs, however long
    /// they take.
    pub min_ops: usize,
}

/// The measured configuration.
pub const FULL: Sizes = Sizes {
    train_scale: "1.2",
    train_warm_scale: "0.4",
    train_dim: "32",
    train_epochs: 2,
    train_hr_factor: 2.0,
    data_scale: "10",
    data_warm_scale: "2.5",
    data_dim: "16",
    data_hr_factor: 5.0,
    serve_scale: "2",
    serve_dim: "32",
    serve_max_len: 50,
    serve_pool: 4000,
    serve_warm_s: 1.0,
    online_scale: "1.5",
    online_dim: "16",
    online_max_len: 20,
    online_pool: 2000,
    ann_items: 2000,
    ann_queries: 200,
    min_ops: 3,
};

/// `--smoke`: a functional check of every step in seconds, not a
/// measurement. Catalogues this small cannot beat a random ranking by a
/// fixed factor, so the quality floors only ask for "not worse".
pub const SMOKE: Sizes = Sizes {
    train_scale: "0.3",
    train_warm_scale: "0.1",
    train_dim: "8",
    train_epochs: 2,
    train_hr_factor: 0.0,
    data_scale: "1",
    data_warm_scale: "0.5",
    data_dim: "8",
    data_hr_factor: 0.0,
    serve_scale: "0.5",
    serve_dim: "8",
    serve_max_len: 20,
    serve_pool: 400,
    serve_warm_s: 0.2,
    online_scale: "0.4",
    online_dim: "8",
    online_max_len: 12,
    online_pool: 200,
    ann_items: 300,
    ann_queries: 20,
    min_ops: 2,
};

/// The sizes for a mode.
pub fn sizes(smoke: bool) -> &'static Sizes {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// A size string as the number the probes feed the library.
pub fn number(s: &str) -> f64 {
    s.parse().expect("sizes are numeric literals")
}

impl Sizes {
    /// For the provenance block of every result.
    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::num(v as f64);
        Json::obj([
            ("train_scale", Json::str(self.train_scale)),
            ("train_dim", Json::str(self.train_dim)),
            ("train_epochs", n(self.train_epochs)),
            ("data_scale", Json::str(self.data_scale)),
            ("data_dim", Json::str(self.data_dim)),
            ("serve_scale", Json::str(self.serve_scale)),
            ("serve_dim", Json::str(self.serve_dim)),
            ("serve_max_len", n(self.serve_max_len)),
            ("serve_pool", n(self.serve_pool)),
            ("online_scale", Json::str(self.online_scale)),
            ("online_dim", Json::str(self.online_dim)),
            ("online_max_len", n(self.online_max_len)),
            ("online_pool", n(self.online_pool)),
            ("ann_items", n(self.ann_items)),
        ])
    }
}
