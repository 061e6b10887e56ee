//! In-memory spans around each CLI step, HTTP request and layer call;
//! written out as chrome-trace JSON when the benchmark ends, and reduced to
//! per-name self time (a span's duration minus what its children cover).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Identifies a span within one [`Tracer`]; 0 means "no parent".
pub type SpanId = u64;

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// This span's id (≥ 1).
    pub id: SpanId,
    /// The span that caused this one, or 0.
    pub parent: SpanId,
    /// What ran, e.g. `cli.train` or `core.relation_encoder_fwd`.
    pub name: String,
    /// The workload (or probe) the span belongs to; spans of one workload
    /// share it.
    pub workload: String,
    /// Start, µs since epoch.
    pub start_us: f64,
    /// End, µs since epoch.
    pub end_us: f64,
    /// A small integer naming the recording thread (chrome-trace `tid`).
    pub lane: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread. Kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    workload: String,
    state: Mutex<State>,
}

struct State {
    next_id: SpanId,
    spans: Vec<Span>,
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    id: SpanId,
    parent: SpanId,
    name: String,
    lane: u64,
    start_us: f64,
}

impl Open {
    /// The id children name as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Tracer {
    /// A tracer whose spans all carry `workload`.
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            state: Mutex::new(State {
                next_id: 1,
                spans: Vec::new(),
            }),
        }
    }

    /// Microseconds since this tracer was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panicking recorder leaves the span list valid at every step.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Open a span on `lane` under `parent` (0 for a root).
    pub fn begin(&self, name: &str, parent: SpanId, lane: u64) -> Open {
        let id = {
            let mut st = self.lock();
            st.next_id += 1;
            st.next_id - 1
        };
        Open {
            id,
            parent,
            name: name.to_string(),
            lane,
            start_us: self.now_us(),
        }
    }

    /// Close a span and keep it.
    pub fn end(&self, open: Open) {
        let end_us = self.now_us();
        self.lock().spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            workload: self.workload.clone(),
            start_us: open.start_us,
            end_us,
            lane: open.lane,
        });
    }

    /// Time `f` inside a span.
    pub fn span<T>(&self, name: &str, parent: SpanId, lane: u64, f: impl FnOnce(SpanId) -> T) -> T {
        let open = self.begin(name, parent, lane);
        let out = f(open.id);
        self.end(open);
        out
    }

    /// Adopt spans recorded elsewhere (a probe process): ids are re-based
    /// past this tracer's, times shifted by `offset_us`.
    pub fn adopt(&self, spans: Vec<Span>, offset_us: f64) {
        let mut st = self.lock();
        let base = st.next_id;
        let mut top = base;
        for mut s in spans {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s.start_us += offset_us;
            s.end_us += offset_us;
            top = top.max(s.id + 1);
            st.spans.push(s);
        }
        st.next_id = top;
    }

    /// Every closed span so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Run `f` inside a span when tracing is on, bare when it is off.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: SpanId,
    lane: u64,
    f: impl FnOnce(SpanId) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, lane, f),
        None => f(0),
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotals {
    /// Workload the spans belong to.
    pub workload: String,
    /// Span name.
    pub name: String,
    /// How many spans carry the name.
    pub count: usize,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time, µs.
    pub self_us: f64,
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other (concurrent
/// requests under one loop span), so the cover is the union of their
/// intervals clipped to the parent.
pub fn self_time_us(span: &Span, children: &[&Span]) -> f64 {
    let mut cuts: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (s, e) in cuts {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    span.dur_us() - covered
}

/// Self time per (workload, name), largest self time first.
pub fn self_times(spans: &[Span]) -> Vec<NameTotals> {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut by_name: BTreeMap<(String, String), NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = by_name
            .entry((s.workload.clone(), s.name.clone()))
            .or_insert_with(|| NameTotals {
                workload: s.workload.clone(),
                name: s.name.clone(),
                count: 0,
                total_us: 0.0,
                self_us: 0.0,
            });
        t.count += 1;
        t.total_us += s.dur_us();
        t.self_us += self_time_us(s, kids);
    }
    let mut out: Vec<NameTotals> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete event
/// per span; each workload is a process, each lane a thread.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut pids: Vec<&str> = Vec::new();
    let mut events = Vec::with_capacity(spans.len());
    for s in spans {
        let pid = match pids.iter().position(|w| *w == s.workload) {
            Some(i) => i,
            None => {
                pids.push(&s.workload);
                pids.len() - 1
            }
        };
        events.push(Json::obj([
            ("name", Json::str(&s.name)),
            ("cat", Json::str(&s.workload)),
            ("ph", Json::str("X")),
            ("ts", Json::num(s.start_us)),
            ("dur", Json::num(s.dur_us())),
            ("pid", Json::num(pid as f64)),
            ("tid", Json::num(s.lane as f64)),
            (
                "args",
                Json::obj([
                    ("id", Json::num(s.id as f64)),
                    ("parent", Json::num(s.parent as f64)),
                    ("workload", Json::str(&s.workload)),
                ]),
            ),
        ]));
    }
    for (pid, w) in pids.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(pid as f64)),
            ("args", Json::obj([("name", Json::str(*w))])),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// One span as a line a probe prints and the driver reads back:
/// `span <id> <parent> <lane> <start_us> <end_us> <workload> <name>`.
pub fn span_line(s: &Span) -> String {
    format!(
        "span {} {} {} {} {} {} {}",
        s.id, s.parent, s.lane, s.start_us, s.end_us, s.workload, s.name
    )
}

/// Inverse of [`span_line`]; `None` for any other line.
pub fn parse_span_line(line: &str) -> Option<Span> {
    let mut it = line.split(' ');
    if it.next()? != "span" {
        return None;
    }
    Some(Span {
        id: it.next()?.parse().ok()?,
        parent: it.next()?.parse().ok()?,
        lane: it.next()?.parse().ok()?,
        start_us: it.next()?.parse().ok()?,
        end_us: it.next()?.parse().ok()?,
        workload: it.next()?.to_string(),
        name: it.next()?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            workload: "w".into(),
            start_us: start,
            end_us: end,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, "step", 0.0, 100.0);
        let a = span(2, 1, "fwd", 10.0, 40.0);
        let b = span(3, 1, "bwd", 30.0, 60.0); // overlaps a by 10
        let c = span(4, 1, "late", 90.0, 120.0); // clipped to the parent
        assert_eq!(self_time_us(&parent, &[&a, &b, &c]), 100.0 - 50.0 - 10.0);
        assert_eq!(self_time_us(&parent, &[]), 100.0);
        // A child nested wholly inside another adds nothing.
        let inner = span(5, 1, "in", 15.0, 20.0);
        assert_eq!(self_time_us(&parent, &[&a, &inner]), 70.0);
    }

    #[test]
    fn self_times_aggregate_by_name_and_sort_by_self() {
        let spans = vec![
            span(1, 0, "step", 0.0, 100.0),
            span(2, 1, "fwd", 0.0, 70.0),
            span(3, 0, "step", 100.0, 200.0),
            span(4, 3, "fwd", 100.0, 190.0),
            span(5, 4, "gemm", 110.0, 150.0),
        ];
        let t = self_times(&spans);
        let get = |n: &str| t.iter().find(|x| x.name == n).unwrap();
        assert_eq!((get("step").count, get("step").self_us), (2, 40.0));
        assert_eq!((get("fwd").total_us, get("fwd").self_us), (160.0, 120.0));
        assert_eq!(get("gemm").self_us, 40.0);
        assert_eq!(t[0].name, "fwd", "largest self time comes first");
        // Self times partition the root spans' wall.
        assert_eq!(t.iter().map(|x| x.self_us).sum::<f64>(), 200.0);
    }

    #[test]
    fn tracer_nests_and_adopts() {
        let t = Tracer::new("w");
        t.span("outer", 0, 0, |outer| {
            t.span("inner", outer, 0, |_| {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name.as_str(), inner.parent), ("inner", outer.id));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);

        let foreign = vec![span(1, 0, "p", 0.0, 5.0), span(2, 1, "q", 1.0, 2.0)];
        t.adopt(foreign, 1000.0);
        let spans = t.spans();
        let (p, q) = (&spans[2], &spans[3]);
        assert!(
            p.id > outer.id && q.parent == p.id,
            "ids re-based, links kept"
        );
        assert_eq!((p.start_us, q.end_us), (1000.0, 1002.0));
        let after = t.begin("next", 0, 0);
        assert!(
            after.id() > q.id,
            "fresh ids never collide with adopted ones"
        );
    }

    #[test]
    fn span_lines_round_trip_and_chrome_trace_is_json() {
        let s = span(7, 3, "core.denoise_fwd", 1.5, 9.25);
        assert_eq!(parse_span_line(&span_line(&s)), Some(s.clone()));
        assert_eq!(parse_span_line("metric x 1 ms"), None);
        let doc = chrome_trace(&[s]).render();
        let back = crate::json::parse(&doc).unwrap();
        let ev = &back.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("dur").and_then(Json::as_f64), Some(7.75));
        assert_eq!(ev.path(&["args", "parent"]).and_then(Json::as_u64), Some(3));
    }
}
