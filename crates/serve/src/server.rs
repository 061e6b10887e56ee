//! The HTTP front-end: a `TcpListener` accept loop dispatching
//! one-connection-per-thread onto the shared [`Engine`].
//!
//! Endpoints:
//!
//! | route              | method     | behaviour                                   |
//! |--------------------|------------|---------------------------------------------|
//! | `/health`          | GET        | `{"status":"ok","model":...}`               |
//! | `/recommend`       | GET / POST | top-K for `user`/`seq`/`k` (query or JSON)  |
//! | `/metrics`         | GET        | QPS, latency p50/p95/p99, cache, batching   |
//! | `/reload`          | POST       | hot-swap to a newer model version           |
//! | `/shutdown`        | POST       | graceful stop                               |
//!
//! Every request snapshots the engine out of the [`EngineSlot`] once, up
//! front, so a hot swap landing mid-request can never hand it a torn mix of
//! old and new tables.

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{Engine, Recommendation};
use crate::http::{read_request, write_json, Request};
use crate::json::{self, Json};
use crate::swap::{EngineSlot, ReloadOutcome};

/// Connection-handling knobs for the HTTP front-end.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-connection socket read timeout: a client that stalls mid-request
    /// (slowloris, dead peer) is dropped instead of pinning its thread.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// When set (and the slot is reloadable), a background thread polls the
    /// checkpoint directory's `CURRENT` pointer at this interval and swaps
    /// in newer versions automatically — `/reload` without the request.
    pub reload_poll: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            reload_poll: None,
        }
    }
}

struct Shared {
    slot: EngineSlot,
    cfg: ServeConfig,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Flag the accept loop to stop and poke it with a throwaway
    /// connection so `accept()` returns.
    fn trigger_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the engine currently serving (for in-process
    /// inspection; a hot swap may replace it at any time).
    pub fn engine(&self) -> Arc<Engine> {
        self.shared.slot.engine()
    }

    /// The swappable engine slot behind the server.
    pub fn slot(&self) -> &EngineSlot {
        &self.shared.slot
    }

    /// Block until the server stops (via `POST /shutdown` or another
    /// thread calling [`ServerHandle::shutdown`] on a clone-free handle).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.stop_poller();
        self.shared.slot.shutdown();
    }

    /// Stop the accept loop and the engine workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.trigger_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.stop_poller();
        self.shared.slot.shutdown();
    }

    fn stop_poller(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve the
/// engine until shut down, with default connection timeouts. Returns as
/// soon as the listener is accepting.
pub fn serve(engine: Engine, addr: &str) -> io::Result<ServerHandle> {
    serve_with(engine, addr, ServeConfig::default())
}

/// [`serve`] with explicit connection-handling configuration. The engine is
/// pinned for the server's lifetime (no reload source).
pub fn serve_with(engine: Engine, addr: &str, cfg: ServeConfig) -> io::Result<ServerHandle> {
    serve_slot(EngineSlot::fixed(engine), addr, cfg)
}

/// Serve a swappable [`EngineSlot`]: `POST /reload` (and the optional
/// `reload_poll` watcher) hot-swap newer model versions in with zero
/// downtime.
pub fn serve_slot(slot: EngineSlot, addr: &str, cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let poll = cfg.reload_poll.filter(|_| slot.is_reloadable());
    let shared = Arc::new(Shared {
        slot,
        cfg,
        stop: AtomicBool::new(false),
        addr,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("ssdrec-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                let _ = std::thread::Builder::new()
                    .name("ssdrec-conn".into())
                    .spawn(move || handle_connection(stream, &conn_shared));
            }
        })?;
    let poller = match poll {
        Some(interval) => {
            let poll_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("ssdrec-reload-poll".into())
                    .spawn(move || {
                        // Sleep in short slices so shutdown is prompt even
                        // with a long poll interval.
                        let slice = Duration::from_millis(20).min(interval);
                        let mut elapsed = Duration::ZERO;
                        while !poll_shared.stop.load(Ordering::SeqCst) {
                            std::thread::sleep(slice);
                            elapsed += slice;
                            if elapsed >= interval {
                                elapsed = Duration::ZERO;
                                // Errors keep the old model serving; they are
                                // already counted in swap_failed_total.
                                let _ = poll_shared.slot.reload();
                            }
                        }
                    })?,
            )
        }
        None => None,
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        poller,
    })
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // Chaos hook `serve.read`: an injected fault here behaves exactly like
    // a socket-level read failure — the request is never parsed, the
    // connection is answered with a 500 and closed, and the server keeps
    // accepting (a client that retries spends one extra attempt).
    let read = ssdrec_faults::point("serve.read")
        .map_err(io::Error::from)
        .and_then(|()| read_request(&mut stream));
    let req = match read {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let status = if e.kind() == io::ErrorKind::InvalidData {
                400
            } else {
                shared
                    .slot
                    .stats()
                    .io_faults
                    .fetch_add(1, Ordering::Relaxed);
                500
            };
            let _ = write_json(
                &mut stream,
                status,
                &format!("{{\"error\":{}}}", json::quote(&e.to_string())),
            );
            return;
        }
    };
    let (status, body) = route(&req, shared);
    // Chaos hook `serve.write`: drop the response on the floor, as a broken
    // pipe would — the client sees a truncated response (typed
    // `ClientError`) and retries.
    if ssdrec_faults::point("serve.write").is_err() {
        shared
            .slot
            .stats()
            .io_faults
            .fetch_add(1, Ordering::Relaxed);
    } else {
        let _ = write_json(&mut stream, status, &body);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn route(req: &Request, shared: &Shared) -> (u16, String) {
    // One engine snapshot per request: everything below serves from this
    // immutable Arc, even if a hot swap commits while we run.
    let engine = shared.slot.engine();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (
            200,
            format!(
                "{{\"status\":\"ok\",\"model\":{},\"num_items\":{},\"model_version\":{}}}",
                json::quote(&engine.model().model_name()),
                engine.model().num_items(),
                shared.slot.stats().model_version(),
            ),
        ),
        ("GET", "/metrics") => (200, shared.slot.stats().to_json()),
        ("GET" | "POST", "/recommend") => match parse_recommend(req) {
            Ok((user, seq, k)) => match engine.recommend(user, &seq, k) {
                Ok(rec) => (200, recommendation_json(&rec)),
                Err(e) => (
                    e.http_status(),
                    format!("{{\"error\":{}}}", json::quote(&e.to_string())),
                ),
            },
            Err(e) => {
                // Malformed before reaching the engine: count it here.
                shared
                    .slot
                    .stats()
                    .errors_total
                    .fetch_add(1, Ordering::Relaxed);
                (400, format!("{{\"error\":{}}}", json::quote(&e)))
            }
        },
        ("POST", "/reload") => match shared.slot.reload() {
            Ok(ReloadOutcome::Swapped { version }) => (
                200,
                format!("{{\"status\":\"swapped\",\"model_version\":{version}}}"),
            ),
            Ok(ReloadOutcome::Unchanged { version }) => (
                200,
                format!("{{\"status\":\"unchanged\",\"model_version\":{version}}}"),
            ),
            Err(e) => (500, format!("{{\"error\":{}}}", json::quote(&e))),
        },
        ("POST", "/shutdown") => {
            shared.trigger_stop();
            (200, "{\"status\":\"shutting down\"}".into())
        }
        (_, "/health" | "/metrics" | "/recommend" | "/reload" | "/shutdown") => {
            (405, "{\"error\":\"method not allowed\"}".into())
        }
        _ => (404, "{\"error\":\"no such endpoint\"}".into()),
    }
}

/// Accept `user`/`seq`/`k` from a JSON body (`{"user":3,"seq":[1,2],"k":10}`)
/// or, for curl-friendliness, from query parameters
/// (`/recommend?user=3&seq=1,2&k=10`). `k` defaults to 10.
fn parse_recommend(req: &Request) -> Result<(usize, Vec<usize>, usize), String> {
    if !req.body.is_empty() {
        let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
        let v = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        let user = v
            .get("user")
            .and_then(Json::as_usize)
            .ok_or("missing integer field \"user\"")?;
        let seq = v
            .get("seq")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"seq\"")?
            .iter()
            .map(|j| {
                j.as_usize()
                    .ok_or("\"seq\" must contain non-negative integers")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let k = match v.get("k") {
            Some(j) => j.as_usize().ok_or("\"k\" must be a non-negative integer")?,
            None => 10,
        };
        return Ok((user, seq, k));
    }
    let user = req
        .query
        .get("user")
        .ok_or("missing query parameter \"user\"")?
        .parse()
        .map_err(|_| "\"user\" must be an integer")?;
    let seq = req
        .query
        .get("seq")
        .ok_or("missing query parameter \"seq\" (comma-separated item IDs)")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().map_err(|_| format!("bad item ID {s:?}")))
        .collect::<Result<Vec<usize>, _>>()?;
    let k = match req.query.get("k") {
        Some(s) => s.parse().map_err(|_| "\"k\" must be an integer")?,
        None => 10,
    };
    Ok((user, seq, k))
}

fn recommendation_json(rec: &Recommendation) -> String {
    let mut items = String::from("[");
    let mut scores = String::from("[");
    for (i, &(item, score)) in rec.items.iter().enumerate() {
        if i > 0 {
            items.push(',');
            scores.push(',');
        }
        let _ = write!(items, "{item}");
        scores.push_str(&json::f32_to_json(score));
    }
    items.push(']');
    scores.push(']');
    format!(
        "{{\"user\":{},\"k\":{},\"items\":{},\"scores\":{},\"batch_size\":{}}}",
        rec.user, rec.k, items, scores, rec.batch_size
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommend_parses_json_body() {
        let req = Request {
            method: "POST".into(),
            path: "/recommend".into(),
            query: Default::default(),
            body: br#"{"user":3,"seq":[1,2,5],"k":7}"#.to_vec(),
        };
        assert_eq!(parse_recommend(&req).unwrap(), (3, vec![1, 2, 5], 7));
    }

    #[test]
    fn recommend_parses_query_params_with_default_k() {
        let req = Request {
            method: "GET".into(),
            path: "/recommend".into(),
            query: [
                ("user".to_string(), "4".to_string()),
                ("seq".to_string(), "9,8, 7".to_string()),
            ]
            .into_iter()
            .collect(),
            body: Vec::new(),
        };
        assert_eq!(parse_recommend(&req).unwrap(), (4, vec![9, 8, 7], 10));
    }

    #[test]
    fn recommend_rejects_missing_fields() {
        let req = Request {
            method: "POST".into(),
            path: "/recommend".into(),
            query: Default::default(),
            body: br#"{"seq":[1]}"#.to_vec(),
        };
        assert!(parse_recommend(&req).unwrap_err().contains("user"));
    }

    #[test]
    fn recommendation_json_round_trips() {
        let rec = Recommendation {
            user: 2,
            k: 2,
            items: vec![(5, 0.125), (9, -0.5)],
            batch_size: 3,
        };
        let v = json::parse(&recommendation_json(&rec)).unwrap();
        assert_eq!(v.get("user").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("batch_size").unwrap().as_usize(), Some(3));
        let items: Vec<usize> = v
            .get("items")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_usize().unwrap())
            .collect();
        assert_eq!(items, vec![5, 9]);
        let s0 = v.get("scores").unwrap().as_arr().unwrap()[0]
            .as_f64()
            .unwrap() as f32;
        assert_eq!(s0.to_bits(), 0.125f32.to_bits());
    }
}
