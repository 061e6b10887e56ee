//! The traced pass's per-layer side: which probe owns which metric, how a
//! probe is run, and what it prints. A probe is a small binary of the
//! `ssdrec-benchmark-probes` package that links the crates and times calls
//! into one layer group's public functions; each stands alone, so one that
//! fails to build or run only nulls its own metrics.

use std::path::Path;
use std::time::Duration;

use crate::proc;
use crate::trace::{parse_span_line, Span, Tracer};

/// One probe binary and the per-layer metrics it reports, as
/// `(name, unit)`. Names are `<crate>.<metric>`.
pub struct ProbeSpec {
    /// Binary name under the build's `release/` directory.
    pub bin: &'static str,
    /// The metrics it must print.
    pub metrics: &'static [(&'static str, &'static str)],
}

/// Every probe, in run order. `BENCHMARK.json`'s `per_layer` list is this
/// table (a driver test keeps the two equal).
pub const PROBES: [ProbeSpec; 7] = [
    ProbeSpec {
        bin: "probe_train",
        metrics: &[
            ("data.prepare_ms", "ms"),
            ("data.batch_ram_ms", "ms"),
            ("tensor.reset_bind_ms", "ms"),
            ("models.loss_forward_ms", "ms"),
            ("tensor.backward_ms", "ms"),
            ("tensor.optim_ms", "ms"),
            ("models.step_ms", "ms"),
            ("probe.step_coverage", "ratio"),
            ("models.eval_forward_ms", "ms"),
            ("metrics.rank_rows_ms", "ms"),
            ("tensor.pool_hit_rate", "ratio"),
            ("metrics.hr_at_10", "ratio"),
            ("probe.train_overhead_frac", "ratio"),
        ],
    },
    ProbeSpec {
        bin: "probe_stages",
        metrics: &[
            ("core.model_build_ms", "ms"),
            ("core.relation_encoder_fwd_ms", "ms"),
            ("core.augment_fwd_ms", "ms"),
            ("core.denoise_fwd_ms", "ms"),
            ("models.backbone_fwd_ms", "ms"),
            ("models.score_loss_fwd_ms", "ms"),
            ("core.stage_coverage", "ratio"),
            ("models.sasrec_step_ms", "ms"),
        ],
    },
    ProbeSpec {
        bin: "probe_kernels",
        metrics: &[
            ("tensor.gemm_adj_gflops", "gflop/s"),
            ("tensor.gemm_score_gflops", "gflop/s"),
            ("tensor.softmax_rows_us", "us"),
            ("tensor.ckpt_save_ms", "ms"),
            ("tensor.ckpt_load_ms", "ms"),
            ("runtime.threads", "count"),
            ("runtime.dispatch_us", "us"),
        ],
    },
    ProbeSpec {
        bin: "probe_data",
        metrics: &[
            ("data.encode_minter_per_s", "M/s"),
            ("data.open_ms", "ms"),
            ("data.scan_minter_per_s", "M/s"),
            ("data.plan_ms", "ms"),
            ("data.batch_windowed_ms", "ms"),
            ("graph.build_s", "s"),
            ("graph.build_kinter_per_s", "k/s"),
            ("graph.edges", "count"),
            ("graph.build_small_ms", "ms"),
        ],
    },
    ProbeSpec {
        bin: "probe_serve",
        metrics: &[
            ("serve.http_parse_us", "us"),
            ("serve.json_parse_us", "us"),
            ("serve.write_json_us", "us"),
            ("serve.frozen_forward_us", "us"),
            ("metrics.top_k_us", "us"),
            ("serve.engine_direct_us", "us"),
            ("serve.engine_default_us", "us"),
            ("serve.linger_wait_us", "us"),
            ("serve.cache_hit_us", "us"),
            ("serve.cache_hit_rate", "ratio"),
            ("serve.batch_size_mean", "count"),
            ("serve.http_overhead_us", "us"),
        ],
    },
    ProbeSpec {
        bin: "probe_ann",
        metrics: &[
            ("ann.build_ms", "ms"),
            ("ann.build_us_per_item", "us"),
            ("ann.candidates_us", "us"),
            ("ann.candidates_per_query", "count"),
            ("ann.exact_scan_us", "us"),
            ("ann.recall_at_10", "ratio"),
        ],
    },
    ProbeSpec {
        bin: "probe_stream",
        metrics: &[
            ("stream.append_krec_per_s", "k/s"),
            ("stream.sync_ms", "ms"),
            ("stream.replay_ms", "ms"),
            ("stream.materialize_ms", "ms"),
            ("stream.retrain_full_s", "s"),
            ("stream.retrain_delta_s", "s"),
            ("stream.delta_over_full", "ratio"),
            ("stream.load_version_ms", "ms"),
            ("serve.reload_ms", "ms"),
            ("serve.swap_pause_max_ms", "ms"),
        ],
    },
];

/// One per-layer metric; `value` is `None` when its probe failed.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerMetric {
    /// `<crate>.<metric>`.
    pub name: String,
    /// The measured value.
    pub value: Option<f64>,
    /// Its unit.
    pub unit: String,
}

/// Everything the probes reported.
#[derive(Default)]
pub struct Layers {
    /// Every metric of every probe, in table order.
    pub metrics: Vec<LayerMetric>,
    /// `(probe, reason)` for each probe that did not deliver.
    pub probe_failed: Vec<(String, String)>,
    /// Free-form lines the probes printed (`note …`), as `(probe, text)`.
    pub notes: Vec<(String, String)>,
}

impl Layers {
    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name)?.value
    }
}

/// What a probe printed, parsed: `metric <name> <value> <unit>`,
/// `span …` (see [`crate::trace::span_line`]) and `note <text>` lines;
/// anything else is ignored.
pub struct ProbeOutput {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Spans, ids local to the probe.
    pub spans: Vec<Span>,
    /// Notes.
    pub notes: Vec<String>,
}

/// Parse a probe's standard output.
pub fn parse_probe_output(stdout: &str) -> ProbeOutput {
    let mut out = ProbeOutput {
        metrics: Vec::new(),
        spans: Vec::new(),
        notes: Vec::new(),
    };
    for line in stdout.lines() {
        if let Some(span) = parse_span_line(line) {
            out.spans.push(span);
        } else if let Some(note) = line.strip_prefix("note ") {
            out.notes.push(note.to_string());
        } else if let Some(rest) = line.strip_prefix("metric ") {
            let mut it = rest.split(' ');
            if let (Some(name), Some(Ok(value)), Some(unit)) =
                (it.next(), it.next().map(str::parse::<f64>), it.next())
            {
                out.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
        }
    }
    out
}

/// Match what a probe printed against what its spec promises: every
/// promised metric must be there, finite, with the promised unit.
pub fn collect(spec: &ProbeSpec, printed: &ProbeOutput) -> Result<Vec<LayerMetric>, String> {
    spec.metrics
        .iter()
        .map(|(name, unit)| {
            let (_, value, got_unit) = printed
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("did not report {name}"))?;
            if got_unit != unit {
                return Err(format!("{name} came in {got_unit}, not {unit}"));
            }
            if !value.is_finite() {
                return Err(format!("{name} is not finite"));
            }
            Ok(LayerMetric {
                name: name.to_string(),
                value: Some(*value),
                unit: unit.to_string(),
            })
        })
        .collect()
}

fn nulls(spec: &ProbeSpec) -> Vec<LayerMetric> {
    spec.metrics
        .iter()
        .map(|(name, unit)| LayerMetric {
            name: name.to_string(),
            value: None,
            unit: unit.to_string(),
        })
        .collect()
}

/// Run every probe found in `probe_dir`, one after the other (they time
/// code; two at once on this host would time each other). A probe that has
/// spent half of `seconds` cuts its remaining repetition loops to three
/// passes: on the reference host none gets there, on a slower one the
/// traced pass stays bounded. Spans are adopted into `tracer`.
pub fn run_probes(
    probe_dir: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tracer: &Tracer,
) -> Layers {
    let mut layers = Layers::default();
    for spec in &PROBES {
        let bin = probe_dir.join(spec.bin);
        let mut args = vec![
            "--seed".to_string(),
            seed.to_string(),
            "--budget-ms".to_string(),
            format!("{:.0}", seconds * 0.5 * 1e3),
            "--work".to_string(),
            work.join(spec.bin).display().to_string(),
        ];
        if smoke {
            args.push("--smoke".to_string());
        }
        let started_us = tracer.now_us();
        let outcome = if bin.is_file() {
            proc::run(&bin, &args, work, spec.bin, Duration::from_secs(120)).and_then(|f| {
                let printed = parse_probe_output(&f.stdout);
                collect(spec, &printed).map(|m| (m, printed))
            })
        } else {
            Err("did not build".to_string())
        };
        match outcome {
            Ok((metrics, printed)) => {
                layers.metrics.extend(metrics);
                tracer.adopt(printed.spans, started_us);
                layers
                    .notes
                    .extend(printed.notes.into_iter().map(|n| (spec.bin.to_string(), n)));
            }
            Err(why) => {
                layers.metrics.extend(nulls(spec));
                layers.probe_failed.push((spec.bin.to_string(), why));
            }
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_name_their_layer() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in &PROBES {
            for (name, unit) in spec.metrics {
                assert!(seen.insert(*name), "{name} listed twice");
                let (layer, metric) = name.split_once('.').expect("<crate>.<metric>");
                assert!(!layer.is_empty() && !metric.is_empty());
                assert!(!unit.is_empty() && unit.len() <= 16);
            }
        }
        assert!(seen.len() <= 128);
    }

    #[test]
    fn a_probe_that_skips_a_metric_fails_alone() {
        let spec = &PROBES[5]; // probe_ann
        let mut text = String::from("note built 30000 x 16\nnoise line\n");
        for (name, unit) in spec.metrics {
            text.push_str(&format!("metric {name} 1.5 {unit}\n"));
        }
        text.push_str("span 1 0 0 0 10 probe_ann ann.build\n");
        let printed = parse_probe_output(&text);
        assert_eq!(printed.spans.len(), 1);
        assert_eq!(printed.notes, vec!["built 30000 x 16"]);
        let got = collect(spec, &printed).unwrap();
        assert_eq!(got.len(), spec.metrics.len());
        assert!(got.iter().all(|m| m.value == Some(1.5)));

        let partial = parse_probe_output("metric ann.build_ms 1 ms\n");
        assert!(collect(spec, &partial)
            .unwrap_err()
            .contains("did not report"));
        let wrong_unit = text.replace("ann.build_ms 1.5 ms", "ann.build_ms 1.5 s");
        assert!(collect(spec, &parse_probe_output(&wrong_unit)).is_err());
        let nan = text.replace("ann.build_ms 1.5 ms", "ann.build_ms NaN ms");
        assert!(collect(spec, &parse_probe_output(&nan)).is_err());
        assert!(nulls(spec).iter().all(|m| m.value.is_none()));
    }

    #[test]
    fn a_missing_probe_binary_nulls_only_its_metrics() {
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("layers-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tracer = Tracer::new("t");
        let layers = run_probes(&dir, &dir, 1, 1.0, true, &tracer);
        let total: usize = PROBES.iter().map(|p| p.metrics.len()).sum();
        assert_eq!(layers.metrics.len(), total);
        assert!(layers.metrics.iter().all(|m| m.value.is_none()));
        assert_eq!(layers.probe_failed.len(), PROBES.len());
        assert!(layers
            .probe_failed
            .iter()
            .all(|(_, why)| why == "did not build"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
