//! # ssdrec-benchmark-probes
//!
//! What the per-layer probes share: argument parsing, repetition under a
//! time budget, spans, and the in-process twins of the end-to-end
//! workloads' inputs. Each `src/bin/probe_*.rs` links the crates and times
//! calls into one layer group's public functions, then prints
//! `metric <name> <value> <unit>`, `span …` and `note …` lines for the
//! driver to read (`ssdrec_benchmark_driver::layers`).

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ssdrec_benchmark_driver::sizes::{number, sizes, Sizes};
use ssdrec_benchmark_driver::stats;
use ssdrec_benchmark_driver::trace::{span_line, SpanId, Tracer};
use ssdrec_core::{SsdRec, SsdRecConfig};
use ssdrec_data::{prepare, Batch, Dataset, Split, SyntheticConfig};
use ssdrec_graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec_models::BackboneKind;
use ssdrec_tensor::{Rng, Tensor};

/// One probe run: its arguments, its spans and what it has measured so far.
pub struct Probe {
    /// Input seed (`--seed`).
    pub seed: u64,
    /// Tiny sizes, three repetitions (`--smoke`).
    pub smoke: bool,
    /// A scratch directory of this probe's own (`--work`), created empty.
    pub work: PathBuf,
    /// The frozen sizes for the mode.
    pub sizes: &'static Sizes,
    budget: Duration,
    started: Instant,
    tracer: Tracer,
    root: SpanId,
    root_open: Option<ssdrec_benchmark_driver::trace::Open>,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Probe {
    /// Parse `--seed N --budget-ms M --work DIR [--smoke]` and open the
    /// probe's root span.
    pub fn start(name: &str) -> Probe {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .cloned()
        };
        let seed = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
        let budget_ms: u64 = value("--budget-ms")
            .and_then(|s| s.parse().ok())
            .unwrap_or(2000);
        let smoke = argv.iter().any(|a| a == "--smoke");
        let work = PathBuf::from(value("--work").unwrap_or_else(|| format!("target/{name}")));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("create the probe's scratch directory");
        let tracer = Tracer::new(name);
        let root_open = tracer.begin(name, 0, 0);
        Probe {
            seed,
            smoke,
            work,
            sizes: sizes(smoke),
            budget: Duration::from_millis(budget_ms),
            started: Instant::now(),
            root: root_open.id(),
            root_open: Some(root_open),
            tracer,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The probe's root span, parent of everything it times.
    pub fn root(&self) -> SpanId {
        self.root
    }

    /// How many repetitions to make of something worth `full` of them.
    pub fn reps(&self, full: usize) -> usize {
        if self.smoke {
            full.min(3)
        } else {
            full
        }
    }

    fn over_budget(&self) -> bool {
        self.started.elapsed() > self.budget
    }

    /// Run `f` inside a span; returns its result and its time in ms.
    pub fn timed<T>(&self, span: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = self.tracer.span(span, parent, 0, f);
        (out, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Time `f` up to `reps` times, one span each, and return the times in
    /// ms. Once the probe is past its budget it stops at three.
    pub fn each_ms(&self, span: &str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
        let mut times = Vec::with_capacity(reps);
        while times.len() < reps && !(times.len() >= 3 && self.over_budget()) {
            times.push(self.timed(span, self.root, |_| f()).1);
        }
        times
    }

    /// Median time of `f` in ms over up to `reps` repetitions.
    pub fn median_ms(&self, span: &str, reps: usize, f: impl FnMut()) -> f64 {
        median(&self.each_ms(span, reps, f))
    }

    /// Median time of one call of `f` in µs, for calls too short to time
    /// singly: each of up to `reps` repetitions (one span each) makes
    /// `inner` calls.
    pub fn median_us_of(&self, span: &str, reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
        let per_rep = self.each_ms(span, reps, || {
            for _ in 0..inner {
                f();
            }
        });
        median(&per_rep) * 1e3 / inner as f64
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Record a line of context for the report.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Close the root span, print everything and clean up.
    pub fn finish(mut self) {
        if let Some(open) = self.root_open.take() {
            self.tracer.end(open);
        }
        for note in &self.notes {
            println!("note {}", note.replace('\n', " "));
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        for span in self.tracer.spans() {
            println!("{}", span_line(&span));
        }
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    stats::median(values).expect("a probe measures at least once")
}

/// The `beauty` profile at `scale` and `seed`, as the CLI generates it.
pub fn beauty(scale: &str, seed: u64) -> Dataset {
    SyntheticConfig::beauty()
        .scaled(number(scale))
        .with_seed(seed)
        .generate()
}

/// What `ssdrec train --profile beauty --scale S --seed N --max-len L`
/// prepares before it trains: the 5-core-filtered dataset, its
/// leave-one-out split and its multi-relation graph.
pub struct Prepared {
    /// Filtered, truncated dataset.
    pub dataset: Dataset,
    /// Leave-one-out split (up to 3 training prefixes per user).
    pub split: Split,
    /// The five-relation graph.
    pub graph: MultiRelationGraph,
}

/// Build [`Prepared`] the way the CLI's `prepare_data` does.
pub fn prepared(scale: &str, seed: u64, max_len: usize) -> Prepared {
    let raw = beauty(scale, seed);
    let (dataset, split) = prepare(&raw, max_len, 3);
    let graph = build_graph(&dataset, &GraphConfig::default());
    Prepared {
        dataset,
        split,
        graph,
    }
}

/// SSDRec with the SASRec backbone over `graph`, every other knob at its
/// default: what the CLI's `train`, `serve` and `retrain` build.
pub fn ssdrec_model(graph: &MultiRelationGraph, dim: usize, max_len: usize, seed: u64) -> SsdRec {
    SsdRec::new(graph, ssdrec_config(dim, max_len, seed))
}

/// The configuration behind [`ssdrec_model`].
pub fn ssdrec_config(dim: usize, max_len: usize, seed: u64) -> SsdRecConfig {
    SsdRecConfig {
        dim,
        max_len,
        backbone: BackboneKind::SasRec,
        seed,
        ..SsdRecConfig::default()
    }
}

/// A request-pool body (`{"user":U,"seq":[…],"k":K}`) as `(user, seq)`.
pub fn parse_request(body: &str) -> (usize, Vec<usize>) {
    let v = ssdrec_serve::json::parse(body).expect("pool bodies are JSON");
    let user = v.get("user").and_then(|j| j.as_usize()).expect("user");
    let seq = v.get("seq").and_then(|j| j.as_arr()).expect("seq");
    (
        user,
        seq.iter().map(|j| j.as_usize().expect("item id")).collect(),
    )
}

/// A dense tensor of uniform values in `[-1, 1)`.
pub fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let n: usize = shape.iter().product();
    Tensor::new((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(), shape)
}

/// A batch of `b` random sequences of length `t` over `1..=items`.
pub fn random_batch(b: usize, t: usize, users: usize, items: usize, seed: u64) -> Batch {
    let mut rng = Rng::seed(seed);
    let mut pick = |n: usize| (rng.uniform(0.0, 1.0) * n as f32) as usize % n;
    Batch {
        users: (0..b).map(|_| pick(users)).collect(),
        items: (0..b * t).map(|_| 1 + pick(items)).collect(),
        seq_len: t,
        targets: (0..b).map(|_| 1 + pick(items)).collect(),
        noise: None,
    }
}
