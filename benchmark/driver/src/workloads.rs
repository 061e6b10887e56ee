//! The five end-to-end workloads. Each drives the product only through the
//! surfaces a user touches — the `ssdrec` binary and its HTTP port — and
//! returns the end-to-end metrics plus the outcome of its correctness
//! checks. Sizes are frozen here; `BENCHMARK.json` and the README name them.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{self, Catalogue};
use crate::http;
use crate::json::{self, Json};
use crate::proc::{self, Server};
use crate::sizes::sizes;
use crate::stats;
use crate::trace::{maybe_span, SpanId, Tracer};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "train_ssdrec",
    "data_to_train",
    "serve_default",
    "serve_direct",
    "online_loop",
];

/// Deadline for one CLI step or one server start.
const STEP_TIMEOUT: Duration = Duration::from_secs(120);
/// Top-K asked of every `/recommend`.
const K: usize = 10;
/// Requests in the fixed probe set sent to every server.
const PROBE_SET: usize = 20;

/// What one run is asked to do.
pub struct Env<'a> {
    /// The `ssdrec` binary.
    pub bin: &'a Path,
    /// An empty scratch directory for this run.
    pub work: &'a Path,
    /// Tiny sizes (a functional check, not a measurement).
    pub smoke: bool,
    /// Spans are recorded when set (the traced pass).
    pub tracer: Option<&'a Tracer>,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    /// Input seed.
    pub seed: u64,
}

/// One correctness check's outcome.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

/// Operation and memory accounting shared by a workload's steps.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    peak_rss_kib: u64,
    checks: Vec<Check>,
}

impl Tally {
    fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }
}

/// The end-to-end result of one workload run.
pub struct E2e {
    /// Workload name.
    pub workload: String,
    /// Median set-up time over `setup_reps` set-ups, seconds.
    pub setup_s: f64,
    /// Operations per second (the operation is the workload's own).
    pub throughput: f64,
    /// What `throughput` counts.
    pub throughput_op: &'static str,
    /// Median latency of one operation in an undisturbed slice of the run
    /// (see [`Sliced`]), ms.
    pub latency_p50_ms: f64,
    /// Latency sample count.
    pub samples: usize,
    /// Highest `VmHWM` over the workload's `ssdrec` processes, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted (CLI steps and HTTP requests).
    pub attempted: u64,
    /// Operations failed (non-zero exit, non-200, timeout, malformed body).
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Sizes and workload-specific observations, for the report.
    pub notes: Vec<(String, Json)>,
}

impl E2e {
    /// All checks held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The end-to-end metrics by their `BENCHMARK.json` names, with units.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("throughput", self.throughput, "op/s"),
            ("latency_p50_ms", self.latency_p50_ms, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Run one workload by name.
pub fn run(name: &str, env: &Env) -> Result<E2e, String> {
    match name {
        "train_ssdrec" => train_ssdrec(env),
        "data_to_train" => data_to_train(env),
        "serve_default" => serve(env, false),
        "serve_direct" => serve(env, true),
        "online_loop" => online_loop(env),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

// ---------------------------------------------------------------- helpers

/// A command line as the argument list it is: split on whitespace (no
/// argument the benchmark passes contains any).
fn words(line: &str) -> Vec<String> {
    line.split_ascii_whitespace().map(str::to_string).collect()
}

/// Observations for the report, in the order given.
fn notes<const N: usize>(pairs: [(&str, Json); N]) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::num).collect())
}

fn subdir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One CLI step: counted, spanned when tracing, fatal when it fails (no
/// later step can run without its output).
fn cli(
    env: &Env,
    tally: &mut Tally,
    parent: SpanId,
    dir: &Path,
    tag: &str,
    args: &[String],
) -> Result<proc::Finished, String> {
    tally.attempted += 1;
    let span = format!("cli.{}", args[0]);
    let done = maybe_span(env.tracer, &span, parent, 0, |_| {
        proc::run(env.bin, args, dir, tag, STEP_TIMEOUT)
    });
    match done {
        Ok(f) => {
            tally.peak_rss_kib = tally.peak_rss_kib.max(f.peak_rss_kib);
            Ok(f)
        }
        Err(e) => {
            tally.failed += 1;
            Err(e)
        }
    }
}

/// Start `ssdrec serve …` in `dir` and wait until it is healthy: one
/// counted, spanned operation.
fn start_server(
    env: &Env,
    tally: &mut Tally,
    parent: SpanId,
    dir: &Path,
    args: &[String],
) -> Result<Server, String> {
    tally.attempted += 1;
    maybe_span(env.tracer, "serve.start", parent, 0, |_| {
        Server::start(env.bin, args, dir, "serve", STEP_TIMEOUT)
    })
    .inspect_err(|_| tally.failed += 1)
}

/// Shut a server down cleanly and keep its memory high-water mark.
fn retire(server: Server, tally: &mut Tally) -> Result<(), String> {
    let peak = server.shutdown(STEP_TIMEOUT)?;
    tally.peak_rss_kib = tally.peak_rss_kib.max(peak);
    Ok(())
}

/// `data: 161 items, 784 train / 301 valid / 301 test examples`
/// → (items, train, test).
fn parse_data_line(stdout: &str) -> Option<(usize, usize, usize)> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("data: "))?;
    let nums: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    match nums[..] {
        [items, train, _valid, test] => Some((items, train, test)),
        _ => None,
    }
}

/// HR@10 from the `test  : HR@5 … HR@10 0.2857 …` line.
fn parse_test_hr10(stdout: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.starts_with("test"))?;
    let mut it = line.split_ascii_whitespace();
    it.find(|t| *t == "HR@10")?;
    it.next()?.parse().ok()
}

/// The `valid :` and `test  :` lines: what must repeat bit for bit.
fn metric_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| l.starts_with("valid") || l.starts_with("test"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `created L (480 users, 390 items): …` → the log's catalogue.
fn parse_catalogue(stdout: &str) -> Option<Catalogue> {
    let inner = stdout.split_once('(')?.1.split_once(')')?.0;
    let (users, items) = inner.split_once(',')?;
    Some(Catalogue {
        users: users.split_ascii_whitespace().next()?.parse().ok()?,
        items: items.split_ascii_whitespace().next()?.parse().ok()?,
    })
}

/// A 200 body must parse, hold exactly `k` distinct items in `1..=items`
/// and list scores in non-increasing order.
pub fn check_recommendation(body: &str, k: usize, items: usize) -> Result<(), String> {
    let v = json::parse(body)?;
    let ids: Vec<u64> = v
        .get("items")
        .and_then(Json::as_arr)
        .ok_or("no \"items\" array")?
        .iter()
        .map(|j| j.as_u64().ok_or("non-integer item"))
        .collect::<Result<_, _>>()?;
    let scores: Vec<f64> = v
        .get("scores")
        .and_then(Json::as_arr)
        .ok_or("no \"scores\" array")?
        .iter()
        .map(|j| j.as_f64().ok_or("non-numeric score"))
        .collect::<Result<_, _>>()?;
    if ids.len() != k || scores.len() != k {
        return Err(format!(
            "{} items, {} scores, want {k}",
            ids.len(),
            scores.len()
        ));
    }
    if let Some(bad) = ids.iter().find(|&&i| i == 0 || i > items as u64) {
        return Err(format!("item {bad} outside 1..={items}"));
    }
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != k {
        return Err("duplicate items".into());
    }
    if scores.windows(2).any(|w| w[1] > w[0]) {
        return Err("scores increase".into());
    }
    Ok(())
}

/// The response without its `batch_size` member, which reports how the
/// request happened to be coalesced, not what was recommended.
fn without_batch_size(body: &str) -> String {
    match body.rfind(",\"batch_size\":") {
        Some(i) => format!("{}}}", &body[..i]),
        None => body.to_string(),
    }
}

/// What a workload measured, before it is joined with its accounting.
struct Measured {
    workload: &'static str,
    setup: Vec<Duration>,
    throughput: f64,
    throughput_op: &'static str,
    latency_p50_ms: f64,
    samples: usize,
    notes: Vec<(String, Json)>,
}

impl Tally {
    fn finish(self, m: Measured) -> E2e {
        let setup_s: Vec<f64> = m.setup.iter().map(Duration::as_secs_f64).collect();
        E2e {
            workload: m.workload.to_string(),
            setup_s: stats::median(&setup_s).unwrap_or(f64::NAN),
            throughput: m.throughput,
            throughput_op: m.throughput_op,
            latency_p50_ms: m.latency_p50_ms,
            samples: m.samples,
            peak_rss_mb: self.peak_rss_kib as f64 / 1024.0,
            attempted: self.attempted,
            failed: self.failed,
            checks: self.checks,
            notes: m.notes,
        }
    }
}

// -------------------------------------------- train_ssdrec / data_to_train

/// What the timed operations of a batch workload left behind.
struct Ops {
    walls: Vec<Duration>,
    /// The `train` output of each operation.
    train_out: Vec<String>,
}

/// Run `op` until the timed region is over (and at least `min_ops` times).
/// `op` returns the operation's wall time and its `train` output.
fn timed_ops(
    env: &Env,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<(Duration, String), String>,
) -> Result<Ops, String> {
    let start = Instant::now();
    let mut ops = Ops {
        walls: Vec::new(),
        train_out: Vec::new(),
    };
    while ops.walls.len() < min_ops || start.elapsed().as_secs_f64() < env.seconds {
        let (wall, out) = op(ops.walls.len())?;
        ops.walls.push(wall);
        ops.train_out.push(out);
    }
    Ok(ops)
}

/// A batch workload's result. Each operation is a slice of its own (see
/// [`Sliced`]): throughput and latency come from the fast-quartile
/// operation, the one the shared host disturbed least. Checks that the
/// model beats a random ranking by `hr_factor` and that every operation —
/// same seed — printed the same metric lines.
fn batch_result(
    (workload, throughput_op): (&'static str, &'static str),
    work_of: impl FnOnce(usize) -> f64,
    hr_factor: f64,
    ops: Ops,
    setup: Vec<Duration>,
    mut tally: Tally,
    mut extra: Vec<(String, Json)>,
) -> Result<E2e, String> {
    let first = &ops.train_out[0];
    let (items, train, _) = parse_data_line(first).ok_or("train printed no data: line")?;
    let hr10 = parse_test_hr10(first).ok_or("train printed no test HR@10")?;
    let floor = hr_factor * K as f64 / items as f64;
    tally.check(
        "hr_at_10 beats a random ranking",
        hr10 >= floor,
        format!("HR@10 {hr10} vs {hr_factor}x random = {floor:.4} ({items} items)"),
    );
    let lines = metric_lines(first);
    tally.check(
        "same seed, same metric lines",
        !lines.is_empty() && ops.train_out.iter().all(|o| metric_lines(o) == lines),
        format!("{} runs compared", ops.train_out.len()),
    );

    let ms: Vec<f64> = ops.walls.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let fast = stats::quantile(&ms, 0.25).unwrap_or(f64::NAN);
    extra.extend(notes([
        ("items", Json::num(items as f64)),
        ("train_examples", Json::num(train as f64)),
        ("hr_at_10", Json::num(hr10)),
        ("op_ms", nums(&ms)),
    ]));
    Ok(tally.finish(Measured {
        workload,
        setup,
        throughput: work_of(train) / (fast / 1e3),
        throughput_op,
        latency_p50_ms: fast,
        samples: ms.len(),
        notes: extra,
    }))
}

/// SSDRec on the in-RAM path: `core` stages and `tensor` gemms do the work.
fn train_ssdrec(env: &Env) -> Result<E2e, String> {
    let sz = sizes(env.smoke);
    let mut tally = Tally::default();
    let train_args = |scale: &str, epochs: usize| {
        words(&format!(
            "train --profile beauty --scale {scale} --seed {} --dim {} --epochs {epochs} \
             --batch-size 64 --max-len 50 --out m.ssdt",
            env.seed, sz.train_dim
        ))
    };

    // Set-up: a reduced warm-up run of the same command, so the binary and
    // its pages are resident before the timed region.
    let mut setup = Vec::new();
    for rep in 0..env.setup_reps {
        let dir = subdir(env.work, &format!("warm{rep}"))?;
        let args = train_args(sz.train_warm_scale, 1);
        let f = maybe_span(env.tracer, "setup", 0, 0, |p| {
            cli(env, &mut tally, p, &dir, "warm", &args)
        })?;
        setup.push(f.wall);
    }

    let dir = subdir(env.work, "ops")?;
    let args = train_args(sz.train_scale, sz.train_epochs);
    let ops = timed_ops(env, sz.min_ops, |n| {
        let f = maybe_span(env.tracer, "op", 0, 0, |p| {
            cli(env, &mut tally, p, &dir, &format!("train{n}"), &args)
        })?;
        Ok((f.wall, f.stdout))
    })?;
    batch_result(
        ("train_ssdrec", "train examples x epochs / train wall"),
        |train| (train * sz.train_epochs) as f64,
        sz.train_hr_factor,
        ops,
        setup,
        tally,
        notes([
            ("scale", Json::str(sz.train_scale)),
            ("dim", Json::str(sz.train_dim)),
            ("epochs", Json::num(sz.train_epochs as f64)),
        ]),
    )
}

/// The out-of-core path: `gen-data` writes a columnar file, `train --data`
/// reads it through a bounded window and trains the bare backbone, so
/// `data` and `graph` dominate and `core` is bypassed.
fn data_to_train(env: &Env) -> Result<E2e, String> {
    let sz = sizes(env.smoke);
    let mut tally = Tally::default();
    let train_args = words(&format!(
        "train --data c.ssdc --baseline --dim {} --epochs 1 --batch-size 64 --max-len 50 --seed {}",
        sz.data_dim, env.seed
    ));
    // One operation: write the corpus, then train from it.
    let mut op = |dir: &Path, scale: &str, tag: &str, span: &str| {
        let gen_args = words(&format!(
            "gen-data --profile beauty --scale {scale} --seed {} --out c.ssdc",
            env.seed
        ));
        maybe_span(env.tracer, span, 0, 0, |p| {
            let g = cli(env, &mut tally, p, dir, &format!("gen{tag}"), &gen_args)?;
            let t = cli(env, &mut tally, p, dir, &format!("train{tag}"), &train_args)?;
            Ok::<_, String>((g, t))
        })
    };

    let mut setup = Vec::new();
    for rep in 0..env.setup_reps {
        let dir = subdir(env.work, &format!("warm{rep}"))?;
        let (g, t) = op(&dir, sz.data_warm_scale, "", "setup")?;
        setup.push(g.wall + t.wall);
    }

    let dir = subdir(env.work, "ops")?;
    let mut interactions = None;
    let ops = timed_ops(env, sz.min_ops, |n| {
        let (g, t) = op(&dir, sz.data_scale, &n.to_string(), "op")?;
        // `wrote c.ssdc: 2560 users, 22897 interactions, 47141 bytes`
        interactions = g
            .stdout
            .split(", ")
            .find_map(|part| part.strip_suffix(" interactions"))
            .and_then(|n| n.parse::<usize>().ok());
        Ok((g.wall + t.wall, t.stdout))
    })?;
    let interactions = interactions.ok_or("gen-data printed no interaction count")?;
    batch_result(
        (
            "data_to_train",
            "interactions / (gen-data wall + train wall)",
        ),
        |_| interactions as f64,
        sz.data_hr_factor,
        ops,
        setup,
        tally,
        notes([
            ("scale", Json::str(sz.data_scale)),
            ("dim", Json::str(sz.data_dim)),
            ("interactions", Json::num(interactions as f64)),
        ]),
    )
}

// ------------------------------------------------------------ load phases

/// One answered request of a closed-loop client.
struct Sample {
    /// When the reply arrived, seconds after the load phase began.
    done_at: f64,
    latency_ms: f64,
}

/// What a closed-loop client observed.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    repeats_sent: u64,
    repeat_mismatches: u64,
    first_error: Option<String>,
}

/// Width of the slices a load phase is cut into, seconds.
const SLICE_S: f64 = 0.5;

/// A load phase cut into half-second slices.
///
/// The reference host is shared: for seconds at a time a neighbour takes
/// part of it, which only ever makes a slice slower. So the end-to-end
/// numbers are not taken over the whole window but from its slices, at the
/// favourable quartile: `rate` is the upper quartile of the slices'
/// response rates and `p50_ms` the lower quartile of the slices' median
/// latencies — what the system delivers while the host leaves it alone.
/// The whole-window figures travel along as notes.
struct Sliced {
    rate: f64,
    p50_ms: f64,
    /// Every latency of the window, ascending.
    all_ms: Vec<f64>,
    /// Responses per slice.
    counts: Vec<f64>,
}

impl Sliced {
    /// Slice the samples that completed in `from..to` (seconds since the
    /// load phase began); a trailing partial slice is dropped. `None` when
    /// the window holds no whole slice or no sample.
    fn cut<'a>(samples: impl Iterator<Item = &'a Sample>, from: f64, to: f64) -> Option<Sliced> {
        let n = ((to - from) / SLICE_S).floor() as usize;
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n];
        for s in samples {
            let slot = ((s.done_at - from) / SLICE_S).floor();
            if slot >= 0.0 && (slot as usize) < n {
                slices[slot as usize].push(s.latency_ms);
            }
        }
        let counts: Vec<f64> = slices.iter().map(|s| s.len() as f64).collect();
        let rates: Vec<f64> = counts.iter().map(|c| c / SLICE_S).collect();
        let medians: Vec<f64> = slices.iter().filter_map(|s| stats::median(s)).collect();
        let mut all_ms: Vec<f64> = slices.into_iter().flatten().collect();
        stats::sort(&mut all_ms);
        Some(Sliced {
            rate: stats::quantile(&rates, 0.75)?,
            p50_ms: stats::quantile(&medians, 0.25)?,
            all_ms,
            counts,
        })
    }

    /// The whole-window observations, for the report.
    fn notes(&self) -> Vec<(String, Json)> {
        let q = |q: f64| Json::num(stats::quantile_sorted(&self.all_ms, q).unwrap_or(f64::NAN));
        let window_s = self.counts.len() as f64 * SLICE_S;
        notes([
            (
                "window_rate",
                Json::num(self.all_ms.len() as f64 / window_s),
            ),
            ("window_p50_ms", q(0.5)),
            ("window_p95_ms", q(0.95)),
            ("window_p99_ms", q(0.99)),
            ("responses_per_slice", nums(&self.counts)),
        ])
    }
}

/// What every closed-loop client of one load phase shares.
struct Load<'a> {
    addr: SocketAddr,
    pool: &'a [String],
    clients: usize,
    /// Every n-th request repeats the one before it; 0 for never.
    repeat_every: usize,
    items: usize,
    began: Instant,
    /// Stop after this many seconds, if set.
    run_for: Option<f64>,
    /// Stop when raised.
    stop: &'a AtomicBool,
    tracer: Option<&'a Tracer>,
    parent: SpanId,
}

/// One closed-loop client: send, wait for the reply, validate it, send the
/// next, until told to stop.
fn client_loop(load: &Load, client: usize) -> ClientLog {
    let mut log = ClientLog::default();
    let mut previous: Option<(usize, String)> = None;
    let mut position = 0usize;
    loop {
        let now = load.began.elapsed().as_secs_f64();
        if load.stop.load(Ordering::Relaxed) || load.run_for.is_some_and(|s| now >= s) {
            return log;
        }
        let idx = gen::schedule(
            position,
            client,
            load.clients,
            load.pool.len(),
            load.repeat_every,
        );
        position += 1;
        let is_repeat = previous.as_ref().is_some_and(|(i, _)| *i == idx);
        let sent = Instant::now();
        let lane = client as u64 + 1;
        let reply = maybe_span(load.tracer, "http.recommend", load.parent, lane, |_| {
            http::request(load.addr, "POST", "/recommend", &load.pool[idx])
        });
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        log.repeats_sent += is_repeat as u64;
        let verdict = match reply {
            Ok((200, body)) => check_recommendation(&body, K, load.items).map(|()| body),
            Ok((status, body)) => Err(format!("status {status}: {body}")),
            Err(e) => Err(e),
        };
        match verdict {
            Ok(body) => {
                // A cache hit must hand back the very bytes the miss did.
                if is_repeat && previous.as_ref().is_some_and(|(_, b)| *b != body) {
                    log.repeat_mismatches += 1;
                }
                previous = Some((idx, body));
                log.samples.push(Sample {
                    done_at: load.began.elapsed().as_secs_f64(),
                    latency_ms,
                });
            }
            Err(e) => {
                log.failed += 1;
                log.first_error.get_or_insert(e);
                previous = None;
            }
        }
    }
}

impl Tally {
    /// Fold a client's counts in.
    fn absorb(&mut self, log: &ClientLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        if let Some(e) = &log.first_error {
            self.check(
                "every request answered 200 with a valid body",
                false,
                e.clone(),
            );
        }
    }
}

/// Send one counted `/recommend`; the body without its `batch_size`.
fn ask(addr: SocketAddr, body: &str, items: usize, tally: &mut Tally) -> Result<String, String> {
    tally.attempted += 1;
    match http::request(addr, "POST", "/recommend", body) {
        Ok((200, reply)) if check_recommendation(&reply, K, items).is_ok() => {
            Ok(without_batch_size(&reply))
        }
        other => {
            tally.failed += 1;
            Err(format!("probe request: {other:?}"))
        }
    }
}

fn get_json(addr: SocketAddr, path: &str, tally: &mut Tally) -> Result<Json, String> {
    tally.attempted += 1;
    let fetched = http::request(addr, "GET", path, "").and_then(|(status, body)| {
        if status == 200 {
            json::parse(&body)
        } else {
            Err(format!("status {status}"))
        }
    });
    fetched.map_err(|e| {
        tally.failed += 1;
        format!("GET {path}: {e}")
    })
}

fn metrics_u64(m: &Json, path: &[&str]) -> Result<u64, String> {
    m.path(path)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("/metrics has no {}", path.join(".")))
}

// -------------------------------------------------- serve_default / direct

/// Flags that turn the shipped defaults into the one-request-at-a-time
/// configuration.
const DIRECT_FLAGS: &str = "--linger-ms 0 --workers 1 --max-batch 1 --cache 0";
/// Seed offset of the fixed probe requests, so that they are not a prefix
/// of the request pool.
const PROBE_STREAM: u64 = 0xB0D1E5;

/// A server over one trained checkpoint, under closed-loop load.
/// `serve_default` keeps every shipped default and repeats one request in
/// five (session-cache hits); `serve_direct` turns linger, batching and the
/// cache off and never repeats, so each request crosses parse, forward and
/// top-K alone.
fn serve(env: &Env, direct: bool) -> Result<E2e, String> {
    let sz = sizes(env.smoke);
    // Two clients either way: with one, both cores fall idle between
    // requests and the hypervisor's wake-up latency, not the server, set the
    // run-to-run spread (14 % against 4 % on the reference host).
    let clients = 2;
    let repeat_every = if direct { 0 } else { 5 };
    let mut tally = Tally::default();
    let data_flags = format!(
        "--profile beauty --scale {} --seed {} --dim {} --max-len {}",
        sz.serve_scale, env.seed, sz.serve_dim, sz.serve_max_len
    );
    let train_args = words(&format!(
        "train --epochs 1 --batch-size 256 --out m.ssdt {data_flags}"
    ));

    // Set-up: train a one-epoch checkpoint and start a server on it, until
    // the first 200 on /health. Every set-up but the last starts the *other*
    // configuration, and all must answer the probe set with the same bytes:
    // linger, batching and the cache may change timing, never a result.
    let mut setup = Vec::new();
    let mut probe_answers: Vec<Vec<String>> = Vec::new();
    let mut live: Option<(Server, Catalogue)> = None;
    for rep in 0..env.setup_reps {
        let last = rep + 1 == env.setup_reps;
        let flags = if last == direct { DIRECT_FLAGS } else { "" };
        let serve_args = words(&format!(
            "serve --model m.ssdt --addr 127.0.0.1:0 {data_flags} {flags}"
        ));
        let dir = subdir(env.work, &format!("setup{rep}"))?;
        let began = Instant::now();
        let (server, cat) = maybe_span(env.tracer, "setup", 0, 0, |p| {
            let trained = cli(env, &mut tally, p, &dir, "train", &train_args)?;
            let (items, _, test) =
                parse_data_line(&trained.stdout).ok_or("train printed no data: line")?;
            let server = start_server(env, &mut tally, p, &dir, &serve_args)?;
            // Every user with a test example is a valid user id.
            Ok::<_, String>((server, Catalogue { users: test, items }))
        })?;
        setup.push(began.elapsed());
        let probes = gen::request_pool(
            env.seed ^ PROBE_STREAM,
            PROBE_SET,
            1,
            cat,
            (5, sz.serve_max_len),
            K,
        );
        probe_answers.push(
            probes
                .iter()
                .map(|b| ask(server.addr, b, cat.items, &mut tally).unwrap_or_else(|e| e))
                .collect(),
        );
        if last {
            live = Some((server, cat));
        } else {
            retire(server, &mut tally)?;
        }
    }
    let (server, cat) = live.ok_or("no set-up ran (setup_reps is 0)")?;
    if probe_answers.len() > 1 {
        let same = probe_answers.iter().all(|a| *a == probe_answers[0]);
        tally.check(
            "default and direct servers answer the probe set with the same bytes",
            same,
            format!("{} servers x {PROBE_SET} requests", probe_answers.len()),
        );
    }

    // Load: closed loop, warm-up then the timed window.
    let pool = gen::request_pool(
        env.seed,
        sz.serve_pool,
        clients,
        cat,
        (5, sz.serve_max_len),
        K,
    );
    let stop = AtomicBool::new(false);
    let run_for = sz.serve_warm_s + env.seconds;
    let logs: Vec<ClientLog> = maybe_span(env.tracer, "load", 0, 0, |parent| {
        let load = Load {
            addr: server.addr,
            pool: &pool,
            clients,
            repeat_every,
            items: cat.items,
            began: Instant::now(),
            run_for: Some(run_for),
            stop: &stop,
            tracer: env.tracer,
            parent,
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let load = &load;
                    s.spawn(move || client_loop(load, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    });

    let sliced = Sliced::cut(
        logs.iter().flat_map(|l| &l.samples),
        sz.serve_warm_s,
        run_for,
    )
    .ok_or("no request completed")?;
    logs.iter().for_each(|l| tally.absorb(l));
    let sent: u64 = logs.iter().map(|l| l.attempted).sum();
    let repeats: u64 = logs.iter().map(|l| l.repeats_sent).sum();
    let mismatches: u64 = logs.iter().map(|l| l.repeat_mismatches).sum();
    tally.check(
        "a repeated request gets the bytes the first one got",
        mismatches == 0,
        format!("{mismatches} of {repeats} repeats differed"),
    );

    // The server's own counters must agree with what was sent.
    let m = get_json(server.addr, "/metrics", &mut tally)?;
    let hits = metrics_u64(&m, &["cache", "hits"])?;
    let misses = metrics_u64(&m, &["cache", "misses"])?;
    let batches = metrics_u64(&m, &["batching", "batches_total"])?;
    let batched = metrics_u64(&m, &["batching", "batched_requests_total"])?;
    let hit_share = hits as f64 / (hits + misses).max(1) as f64;
    let want_share = repeats as f64 / (sent + PROBE_SET as u64) as f64;
    tally.check(
        "/metrics cache hit share matches the repeat schedule",
        (hit_share - want_share).abs() <= 0.01,
        format!("observed {hit_share:.4}, scheduled {want_share:.4}"),
    );
    retire(server, &mut tally)?;

    let mut observed = notes([
        ("scale", Json::str(sz.serve_scale)),
        ("dim", Json::str(sz.serve_dim)),
        ("items", Json::num(cat.items as f64)),
        ("users", Json::num(cat.users as f64)),
        ("clients", Json::num(clients as f64)),
        ("pool", Json::num(sz.serve_pool as f64)),
        ("cache_hit_share", Json::num(hit_share)),
        (
            "batch_size_mean",
            Json::num(batched as f64 / batches.max(1) as f64),
        ),
    ]);
    observed.extend(sliced.notes());
    Ok(tally.finish(Measured {
        workload: if direct {
            "serve_direct"
        } else {
            "serve_default"
        },
        setup,
        throughput: sliced.rate,
        throughput_op: "200 responses / s",
        latency_p50_ms: sliced.p50_ms,
        samples: sliced.all_ms.len(),
        notes: observed,
    }))
}

// ------------------------------------------------------------ online_loop

/// Ingest → retrain → hot-swap, round after round, while a reader keeps
/// asking the live server for recommendations: `stream` and `serve::swap`
/// do the work, and trainer and server compete for the cores.
fn online_loop(env: &Env) -> Result<E2e, String> {
    let sz = sizes(env.smoke);
    let max_len = sz.online_max_len;
    // A round is long next to the timed region, so the floor is low: two
    // rounds when measuring, one when only tracing where the time goes or
    // checking that the steps work.
    let min_rounds = if env.tracer.is_some() || env.smoke {
        1
    } else {
        2
    };
    let mut tally = Tally::default();
    let retrain_args = words(&format!(
        "retrain --log events.sslg --ckpt-dir ckpt --epochs 1 --dim {} --max-len {max_len} --seed {}",
        sz.online_dim, env.seed
    ));
    let ingest_profile = words(&format!(
        "ingest --log events.sslg --profile beauty --scale {} --seed {}",
        sz.online_scale, env.seed
    ));
    let serve_args = words("serve --ckpt-dir ckpt --log events.sslg --addr 127.0.0.1:0");

    // Set-up: bulk-load the log, train and publish v1, serve it.
    let mut setup = Vec::new();
    let mut live: Option<(Server, Catalogue, PathBuf)> = None;
    for rep in 0..env.setup_reps {
        let dir = subdir(env.work, &format!("setup{rep}"))?;
        let began = Instant::now();
        let (server, cat) = maybe_span(env.tracer, "setup", 0, 0, |p| {
            let loaded = cli(env, &mut tally, p, &dir, "ingest", &ingest_profile)?;
            let cat = parse_catalogue(&loaded.stdout).ok_or("ingest printed no catalogue")?;
            let v1 = cli(env, &mut tally, p, &dir, "retrain", &retrain_args)?;
            if !v1.stdout.starts_with("published v0001") {
                return Err(format!(
                    "first retrain printed {:?}",
                    v1.stdout.lines().next()
                ));
            }
            let server = start_server(env, &mut tally, p, &dir, &serve_args)?;
            Ok::<_, String>((server, cat))
        })?;
        setup.push(began.elapsed());
        if rep + 1 == env.setup_reps {
            live = Some((server, cat, dir));
        } else {
            retire(server, &mut tally)?;
        }
    }
    let (server, cat, dir) = live.ok_or("no set-up ran (setup_reps is 0)")?;
    let addr = server.addr;
    let events_per_round = cat.users;
    let pool = gen::request_pool(env.seed, sz.online_pool, 1, cat, (3, max_len), K);
    let probe =
        gen::request_pool(env.seed ^ PROBE_STREAM, 1, 1, cat, (max_len, max_len), K).remove(0);
    let mut probe_body = ask(addr, &probe, cat.items, &mut tally)?;

    // One round: ingest a delta, retrain on it, swap it in, see it serve.
    let mut reload_ms: Vec<f64> = Vec::new();
    let mut round = |tally: &mut Tally, n: usize, parent: SpanId| -> Result<(), String> {
        let version = n as u64 + 2;
        let events = gen::event_list(
            env.seed.wrapping_mul(1000).wrapping_add(n as u64),
            events_per_round,
            cat,
        );
        let ingest = words(&format!("ingest --log events.sslg --events {events}"));
        let appended = cli(env, tally, parent, &dir, &format!("ingest{n}"), &ingest)?;
        tally.check(
            "ingest appends every generated event",
            appended
                .stdout
                .contains(&format!("+{events_per_round} records")),
            appended.stdout.trim().to_string(),
        );
        let trained = cli(
            env,
            tally,
            parent,
            &dir,
            &format!("retrain{n}"),
            &retrain_args,
        )?;
        tally.check(
            "retrain publishes the next version",
            trained
                .stdout
                .starts_with(&format!("published v{version:04}")),
            trained.stdout.lines().next().unwrap_or("").to_string(),
        );
        tally.attempted += 1;
        let sent = Instant::now();
        let swapped = maybe_span(env.tracer, "http.reload", parent, 0, |_| {
            http::request(addr, "POST", "/reload", "")
        });
        reload_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        let want = format!("{{\"status\":\"swapped\",\"model_version\":{version}}}");
        let ok = matches!(&swapped, Ok((200, body)) if *body == want);
        tally.failed += !ok as u64;
        tally.check(
            "/reload swaps to the published version",
            ok,
            format!("{swapped:?}"),
        );
        let body = ask(addr, &probe, cat.items, tally)?;
        tally.check(
            "a new version changes the probe request's answer",
            body != probe_body,
            format!("v{version:04}"),
        );
        probe_body = body;
        Ok(())
    };

    let stop = AtomicBool::new(false);
    let began = Instant::now();
    let mut round_s: Vec<f64> = Vec::new();
    let (reader, loop_s) = maybe_span(env.tracer, "loop", 0, 0, |root| {
        let load = Load {
            addr,
            pool: &pool,
            clients: 1,
            repeat_every: 0,
            items: cat.items,
            began,
            run_for: None,
            stop: &stop,
            tracer: env.tracer,
            parent: root,
        };
        std::thread::scope(|s| {
            let reader = s.spawn(|| client_loop(&load, 0));
            // Whatever happens in a round, the reader must be told to stop.
            let mut rounds = || -> Result<(), String> {
                while round_s.len() < min_rounds || began.elapsed().as_secs_f64() < env.seconds {
                    let round_began = Instant::now();
                    maybe_span(env.tracer, "round", root, 0, |p| {
                        round(&mut tally, round_s.len(), p)
                    })?;
                    round_s.push(round_began.elapsed().as_secs_f64());
                }
                Ok(())
            };
            let outcome = rounds();
            let loop_s = began.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            let log = reader.join().expect("reader thread panicked");
            outcome.map(|()| (log, loop_s))
        })
    })?;

    let rounds = round_s.len();
    tally.absorb(&reader);
    let m = get_json(addr, "/metrics", &mut tally)?;
    let version = metrics_u64(&m, &["model", "model_version"])?;
    let swaps = metrics_u64(&m, &["model", "swap_total"])?;
    tally.check(
        "the server ends on version rounds + 1 after one swap per round",
        version == rounds as u64 + 1 && swaps == rounds as u64,
        format!("model_version {version}, swap_total {swaps}, {rounds} rounds"),
    );
    retire(server, &mut tally)?;

    let sliced =
        Sliced::cut(reader.samples.iter(), 0.0, loop_s).ok_or("the reader completed no request")?;
    // A round is a slice of its own: the rate of the upper-quartile round.
    let round_rates: Vec<f64> = round_s
        .iter()
        .map(|s| events_per_round as f64 / s)
        .collect();
    let mut observed = notes([
        ("scale", Json::str(sz.online_scale)),
        ("dim", Json::str(sz.online_dim)),
        ("users", Json::num(cat.users as f64)),
        ("items", Json::num(cat.items as f64)),
        ("events_per_round", Json::num(events_per_round as f64)),
        ("rounds", Json::num(rounds as f64)),
        ("round_s", nums(&round_s)),
        (
            "reload_ms_median",
            Json::num(stats::median(&reload_ms).unwrap_or(f64::NAN)),
        ),
    ]);
    observed.extend(sliced.notes());
    Ok(tally.finish(Measured {
        workload: "online_loop",
        setup,
        throughput: stats::quantile(&round_rates, 0.75).unwrap_or(f64::NAN),
        throughput_op: "delta events made live / round wall",
        latency_p50_ms: sliced.p50_ms,
        samples: sliced.all_ms.len(),
        notes: observed,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cli_lines_it_depends_on() {
        let out = "data: 161 items, 784 train / 301 valid / 301 test examples\nmodel : SSDRec[SASRec]\nepochs: 2\nvalid : HR@5 0.1761  HR@10 0.2492  HR@20 0.3455  N@5 0.1289  N@10 0.1527  N@20 0.1773  MRR 0.1301\ntest  : HR@5 0.1960  HR@10 0.2857  HR@20 0.3654  N@5 0.1233  N@10 0.1521  N@20 0.1720  MRR 0.1167\n";
        assert_eq!(parse_data_line(out), Some((161, 784, 301)));
        assert_eq!(parse_test_hr10(out), Some(0.2857));
        assert_eq!(metric_lines(out).lines().count(), 2);
        assert_eq!(parse_data_line("model : x\n"), None);
        let ingest =
            "created L.sslg (480 users, 390 items): +4351 records, 4351 total, end offset 104452\n";
        let cat = parse_catalogue(ingest).unwrap();
        assert_eq!((cat.users, cat.items), (480, 390));
    }

    #[test]
    fn validates_recommendation_bodies() {
        let ok = r#"{"user":3,"k":3,"items":[25,46,102],"scores":[2.2,1.3,1.3],"batch_size":1}"#;
        assert_eq!(check_recommendation(ok, 3, 292), Ok(()));
        assert!(check_recommendation(ok, 10, 292).is_err(), "wrong k");
        assert!(
            check_recommendation(ok, 3, 100).is_err(),
            "item out of range"
        );
        let dup = r#"{"items":[5,5,6],"scores":[3,2,1]}"#;
        assert!(check_recommendation(dup, 3, 10)
            .unwrap_err()
            .contains("duplicate"));
        let rising = r#"{"items":[5,4,6],"scores":[1,2,0]}"#;
        assert!(check_recommendation(rising, 3, 10)
            .unwrap_err()
            .contains("increase"));
        let pad = r#"{"items":[0,4,6],"scores":[3,2,1]}"#;
        assert!(
            check_recommendation(pad, 3, 10).is_err(),
            "item 0 is the pad"
        );
        assert!(check_recommendation("{\"error\":\"x\"}", 3, 10).is_err());
        assert!(check_recommendation("not json", 3, 10).is_err());
    }

    #[test]
    fn slices_report_the_undisturbed_quartile() {
        // 4 s at 10 responses per half-second slice and 2 ms each, except
        // that slices 2 and 3 were disturbed: half the responses, 5 ms each.
        let mut samples = Vec::new();
        for slot in 0..8 {
            let (n, latency_ms) = if slot == 2 || slot == 3 {
                (5, 5.0)
            } else {
                (10, 2.0)
            };
            for i in 0..n {
                samples.push(Sample {
                    done_at: 1.0 + slot as f64 * SLICE_S + i as f64 * 0.01,
                    latency_ms,
                });
            }
        }
        // Outside the window: ignored.
        samples.push(Sample {
            done_at: 0.5,
            latency_ms: 99.0,
        });
        samples.push(Sample {
            done_at: 5.2,
            latency_ms: 99.0,
        });
        let cut = Sliced::cut(samples.iter(), 1.0, 5.0).unwrap();
        assert_eq!(
            cut.counts,
            vec![10.0, 10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0]
        );
        assert_eq!(cut.rate, 20.0, "the undisturbed rate, not the 17.5 mean");
        assert_eq!(cut.p50_ms, 2.0);
        assert_eq!(cut.all_ms.len(), 70);
        assert!(
            Sliced::cut(std::iter::empty(), 0.0, 0.4).is_none(),
            "no whole slice"
        );
    }

    #[test]
    fn strips_only_the_batch_size_member() {
        let body = r#"{"user":3,"k":1,"items":[25],"scores":[2.2],"batch_size":7}"#;
        assert_eq!(
            without_batch_size(body),
            r#"{"user":3,"k":1,"items":[25],"scores":[2.2]}"#
        );
        assert_eq!(without_batch_size("{\"a\":1}"), "{\"a\":1}");
    }
}
