//! The HTTP front-end: **acceptor threads** that each block in `accept()`
//! on the shared listener and serve the connection they accepted
//! themselves, onto the shared [`Engine`]. There is no thread spawn and no
//! hand-off per request: the acceptor that takes the last idle slot spawns
//! one replacement before it serves, so someone always waits in `accept()`
//! and steady traffic spawns nothing; idle acceptors above a fixed bound
//! (16) exit. A busy acceptor holds no handle on the listener, so a
//! stalled client pins its thread (until `read_timeout`) but neither keeps
//! the port open nor delays shutdown.
//!
//! `/reload` and the `reload_poll` watcher run on one long-lived
//! `ssdrec-reload` thread, so engine builds stay off the acceptors.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{Engine, Recommendation};
use crate::http::{read_request, write_json, Request};
use crate::json::{self, Json};
use crate::swap::{EngineSlot, ReloadOutcome};

/// Idle acceptors above this many exit instead of waiting in `accept()`
/// again, so the threads a burst needed do not all outlive it.
const MAX_IDLE_ACCEPTORS: usize = 16;

/// Connection-handling knobs for the HTTP front-end.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-connection socket read timeout: a client that stalls mid-request
    /// (slowloris, dead peer) is dropped instead of pinning its thread.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// When set (and the slot is reloadable), the `ssdrec-reload` thread
    /// polls the checkpoint directory's `CURRENT` pointer whenever this long
    /// passes without a `/reload`, and swaps in newer versions
    /// automatically — `/reload` without the request.
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

/// Where the reload thread sends one `/reload`'s outcome.
type ReloadReply = Sender<Result<ReloadOutcome, String>>;

struct Shared {
    slot: EngineSlot,
    cfg: ServeConfig,
    addr: SocketAddr,
    stop: AtomicBool,
    /// Guards `stop`'s transition to true, for [`Shared::wait_for_stop`].
    stop_lock: Mutex<()>,
    stopped: Condvar,
    /// Acceptors waiting in, or on their way into, `accept()`.
    idle: AtomicUsize,
    /// The `ssdrec-reload` thread's inbox (reloadable slots only); `None`
    /// stops the thread.
    reload_tx: Option<Sender<Option<ReloadReply>>>,
}

impl Shared {
    /// Flag the server to stop and wake [`ServerHandle::join`]. Idle
    /// acceptors are woken by [`ServerHandle::shutdown`].
    fn trigger_stop(&self) {
        let _guard = self.stop_lock.lock().unwrap_or_else(|p| p.into_inner());
        self.stop.store(true, Ordering::SeqCst);
        self.stopped.notify_all();
    }

    fn wait_for_stop(&self) {
        let mut guard = self.stop_lock.lock().unwrap_or_else(|p| p.into_inner());
        while !self.stop.load(Ordering::SeqCst) {
            guard = self.stopped.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Run one reload on the reload thread and wait for its outcome. A
    /// fixed slot has no reload thread and refuses here.
    fn reload(&self) -> Result<ReloadOutcome, String> {
        let Some(inbox) = &self.reload_tx else {
            return self.slot.reload();
        };
        let gone = "the server is shutting down".to_string();
        let (reply, outcome) = mpsc::channel();
        inbox.send(Some(reply)).map_err(|_| gone.clone())?;
        outcome.recv().map_err(|_| gone)?
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// The handle's own hold on the listener: with it, the port stays open
    /// even while every acceptor is busy.
    listener: Option<Arc<TcpListener>>,
    reloader: Option<JoinHandle<()>>,
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

    /// Block until `POST /shutdown` arrives, then shut the server down.
    pub fn join(mut self) {
        self.shared.wait_for_stop();
        self.shutdown();
    }

    /// Close the port, stop the reload thread and the engine workers.
    /// Connections still being served finish on their own threads; none of
    /// them delays this call. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.trigger_stop();
        self.close_listener();
        if let Some(h) = self.reloader.take() {
            if let Some(inbox) = &self.shared.reload_tx {
                let _ = inbox.send(None);
            }
            let _ = h.join();
        }
        self.shared.slot.shutdown();
    }

    /// Drop the handle's hold on the listener and wake every idle acceptor
    /// with a throwaway connection: each one accepts it, sees `stop` and
    /// lets go of the listener. The last hold to go closes the port.
    fn close_listener(&mut self) {
        let Some(listener) = self.listener.take() else {
            return;
        };
        let held = Arc::downgrade(&listener);
        drop(listener);
        while held.strong_count() > 0 {
            let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_millis(100));
            std::thread::sleep(Duration::from_micros(100));
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
    let listener = Arc::new(TcpListener::bind(addr)?);
    let addr = listener.local_addr()?;
    let (reload_tx, inbox) = slot.is_reloadable().then(mpsc::channel).unzip();
    let poll = cfg.reload_poll;
    let shared = Arc::new(Shared {
        slot,
        cfg,
        addr,
        stop: AtomicBool::new(false),
        stop_lock: Mutex::new(()),
        stopped: Condvar::new(),
        idle: AtomicUsize::new(0),
        reload_tx,
    });
    // From here on an error drops `handle`, which stops whatever started.
    let mut handle = ServerHandle {
        shared: Arc::clone(&shared),
        listener: Some(listener),
        reloader: None,
    };
    if let Some(inbox) = inbox {
        let reload_shared = Arc::clone(&shared);
        handle.reloader = Some(
            std::thread::Builder::new()
                .name("ssdrec-reload".into())
                .spawn(move || reload_loop(&reload_shared.slot, &inbox, poll))?,
        );
    }
    spawn_acceptor(&shared, handle.listener.as_ref().expect("just set"))?;
    Ok(handle)
}

/// The `ssdrec-reload` thread: every `/reload`, and with `poll` a reload
/// whenever that long passes without one, one at a time on this thread.
fn reload_loop(slot: &EngineSlot, inbox: &Receiver<Option<ReloadReply>>, poll: Option<Duration>) {
    loop {
        let msg = match poll {
            Some(interval) => inbox.recv_timeout(interval),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let reply = match msg {
            Ok(Some(reply)) => Some(reply),
            Err(RecvTimeoutError::Timeout) => None,
            Ok(None) | Err(RecvTimeoutError::Disconnected) => return,
        };
        // Errors keep the old model serving; they are already counted in
        // swap_failed_total.
        let outcome = slot.reload();
        // The replacement engine was built on this thread: give its
        // scratch buffers back instead of keeping them for the server's
        // lifetime.
        ssdrec_tensor::pool::clear_local();
        if let Some(reply) = reply {
            let _ = reply.send(outcome);
        }
    }
}

/// Start one more acceptor, counted idle from the start so that no other
/// acceptor spawns for the same gap.
fn spawn_acceptor(shared: &Arc<Shared>, listener: &Arc<TcpListener>) -> io::Result<()> {
    shared.idle.fetch_add(1, Ordering::SeqCst);
    let (acc_shared, acc_listener) = (Arc::clone(shared), Arc::clone(listener));
    std::thread::Builder::new()
        .name("ssdrec-acceptor".into())
        .spawn(move || acceptor(&acc_shared, acc_listener))
        .map(drop)
        .inspect_err(|_| {
            shared.idle.fetch_sub(1, Ordering::SeqCst);
        })
}

/// One acceptor's life: wait in `accept()`, serve the connection it
/// accepted, and go back to waiting. It holds the listener only while it
/// waits; while it serves it keeps a weak reference, so shutdown never
/// waits for it.
fn acceptor(shared: &Arc<Shared>, listener: Arc<TcpListener>) {
    let weak = Arc::downgrade(&listener);
    let mut held = Some(listener);
    while let Some(listener) = held.take() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            held = Some(listener);
            continue;
        };
        if shared.idle.fetch_sub(1, Ordering::SeqCst) == 1 {
            // This thread took the last idle slot: keep someone in
            // `accept()` while it serves.
            let _ = spawn_acceptor(shared, &listener);
        }
        drop(listener);
        handle_connection(stream, shared);
        let rejoined = shared
            .idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < MAX_IDLE_ACCEPTORS).then_some(n + 1)
            })
            .is_ok();
        if rejoined {
            held = weak.upgrade();
        }
    }
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
    // immutable Arc, even if a hot swap commits while we run. `/reload`
    // holds it too while it waits for the reload thread, so the swap's
    // drain waits it out.
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
        ("POST", "/reload") => match shared.reload() {
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
