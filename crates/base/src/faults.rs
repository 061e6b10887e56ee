//! A deterministic fault-injection runtime for chaos testing the serve and
//! training paths. Production code marks **named injection sites**:
//!
//! ```
//! fn read_request_guarded() -> Result<(), std::io::Error> {
//!     ssdrec_base::faults::point("serve.read")?;
//!     // ... the real read ...
//!     Ok(())
//! }
//! ```
//!
//! With nothing armed, [`point`] is a single relaxed atomic load — no lock,
//! no allocation, no branch history beyond one predictable compare — so the
//! sites can stay in release builds permanently (every `benchmark/`
//! workload runs with the crate linked but idle).
//!
//! A **plan** arms faults at specific sites. Each spec names a site, a kind
//! and the 1-based armed hit on which it fires, and fires **exactly once**:
//!
//! * `error` — the site returns an [`Injected`] error (convertible to
//!   `std::io::Error`), exercising the caller's recovery path;
//! * `delay<MS>` — the site blocks for `MS` milliseconds (e.g. `delay50`),
//!   simulating a slow client, disk or worker;
//! * `panic` — the site panics, simulating a crashed worker or killed
//!   process. Callers that claim crash-resilience must catch it.
//!
//! Plans come from the environment (`SSDREC_FAULTS=site:kind:nth,...` via
//! [`arm_from_env`], read once by the CLI at startup) or programmatically.
//! Per-site hit and fire counters ([`hits`], [`fired`], [`snapshot`]) let
//! tests and `/metrics` assert exactly which faults triggered. Everything
//! is deterministic: the Nth hit of a site fires the same way on every
//! run — there is no probabilistic injection, so chaos tests are
//! replayable bit-for-bit. (Test-side helpers — the `FaultPlan` builder
//! and fire-count assertions — live in testkit's `fault` module, which
//! layers on this module.)
//!
//! **Where a plan is visible.** This module alone decides it:
//!
//! * [`arm`] arms the **calling thread**. Its sites fire from that plan
//!   and count their hits in it; no other thread sees it.
//! * [`arm_process`] (and [`arm_from_env`]) arm the **process default**,
//!   which every thread without a plan of its own fires from — the scope
//!   for sites reached on threads the caller does not run.
//!
//! Both return an [`Armed`] guard; dropping it restores the plan it
//! replaced. The counter readers report the plan the calling thread fires
//! from. So concurrent tests that each arm their own thread cannot eat or
//! count each other's faults.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an [`Injected`] error from the site.
    Error,
    /// Sleep this many milliseconds, then proceed normally.
    DelayMs(u64),
    /// Panic at the site.
    Panic,
}

/// One armed fault: fires at `site` on its `nth` armed hit (1-based),
/// exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The injection-site name (e.g. `serve.read`).
    pub site: String,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// The 1-based hit count at which it fires.
    pub nth: u64,
}

impl FaultSpec {
    /// Parse one `site:kind:nth` spec. `kind` is `error`, `panic` or
    /// `delay<MS>`; `nth` must be ≥ 1.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut parts = s.split(':');
        let (site, kind, nth) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(site), Some(kind), Some(nth), None) => (site, kind, nth),
            _ => return Err(format!("fault spec {s:?} is not site:kind:nth")),
        };
        if site.is_empty() {
            return Err(format!("fault spec {s:?} has an empty site"));
        }
        let kind = if kind == "error" {
            FaultKind::Error
        } else if kind == "panic" {
            FaultKind::Panic
        } else if let Some(ms) = kind.strip_prefix("delay") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("fault spec {s:?}: bad delay milliseconds {ms:?}"))?;
            FaultKind::DelayMs(ms)
        } else {
            return Err(format!(
                "fault spec {s:?}: unknown kind {kind:?} (error | panic | delay<MS>)"
            ));
        };
        let nth: u64 = nth
            .parse()
            .map_err(|_| format!("fault spec {s:?}: bad hit count {nth:?}"))?;
        if nth == 0 {
            return Err(format!("fault spec {s:?}: hit counts are 1-based"));
        }
        Ok(FaultSpec {
            site: site.to_string(),
            kind,
            nth,
        })
    }

    /// Parse a comma-separated list of specs (the `SSDREC_FAULTS` format).
    /// Empty input yields an empty plan.
    pub fn parse_list(s: &str) -> Result<Vec<FaultSpec>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(FaultSpec::parse)
            .collect()
    }
}

/// The error returned from a site when an `error`-kind fault fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: String,
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl std::error::Error for Injected {}

impl From<Injected> for std::io::Error {
    fn from(e: Injected) -> Self {
        std::io::Error::other(e.to_string())
    }
}

#[derive(Default)]
struct SiteStats {
    hits: u64,
    fired: u64,
}

/// One armed plan: its specs (each with a consumed flag) and the per-site
/// counters of the threads that fire from it.
#[derive(Default)]
struct Plan {
    specs: Vec<(FaultSpec, bool)>,
    sites: BTreeMap<String, SiteStats>,
}

type Shared = Arc<Mutex<Plan>>;

/// How many plans are armed, across every thread and the process default.
/// Zero keeps [`point`] on its one-load fast path.
static ARMED: AtomicUsize = AtomicUsize::new(0);
/// The plan every thread without one of its own fires from.
static PROCESS: Mutex<Option<Shared>> = Mutex::new(None);

thread_local! {
    /// The calling thread's own plan, which shadows the process default.
    static THREAD: RefCell<Option<Shared>> = const { RefCell::new(None) };
}

/// Recover a poisoned lock: a panic-kind fault unwinds by design, and a
/// wedged plan would silence every later site.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The plan the calling thread fires from: its own, else the process
/// default, else none.
fn current() -> Option<Shared> {
    THREAD
        .try_with(|t| t.borrow().clone())
        .ok()
        .flatten()
        .or_else(|| lock(&PROCESS).clone())
}

/// Put `plan` in a scope's slot (the process default's, or the calling
/// thread's) and return the plan it held.
fn swap(process: bool, plan: Option<Shared>) -> Option<Shared> {
    if process {
        std::mem::replace(&mut *lock(&PROCESS), plan)
    } else {
        THREAD.try_with(|t| t.replace(plan)).ok().flatten()
    }
}

/// An armed plan. Dropping it restores the plan it replaced in its scope.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct Armed {
    process: bool,
    replaced: Option<Shared>,
    // A thread-scoped guard must drop on the thread it armed.
    _not_send: PhantomData<*const ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        swap(self.process, self.replaced.take());
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

fn install(process: bool, specs: Vec<FaultSpec>) -> Armed {
    let plan = Plan {
        specs: specs.into_iter().map(|s| (s, false)).collect(),
        sites: BTreeMap::new(),
    };
    ARMED.fetch_add(1, Ordering::SeqCst);
    Armed {
        process,
        replaced: swap(process, Some(Arc::new(Mutex::new(plan)))),
        _not_send: PhantomData,
    }
}

/// Arm a plan for the **calling thread** only, with fresh counters. Other
/// threads neither fire from it nor count their hits in it. The plan
/// shadows the process default on this thread until the guard drops; an
/// empty plan leaves the thread's sites silent and uncounted.
pub fn arm(specs: Vec<FaultSpec>) -> Armed {
    install(false, specs)
}

/// Arm a plan as the **process default**, with fresh counters: every
/// thread without a plan of its own fires from it. This is the scope for
/// sites reached on threads the caller does not run (a server's
/// connection threads, an engine's workers).
pub fn arm_process(specs: Vec<FaultSpec>) -> Armed {
    install(true, specs)
}

/// Arm the process default from the `SSDREC_FAULTS` environment variable.
/// Returns the guard and the spec count, or `None` when the variable is
/// unset or empty.
pub fn arm_from_env() -> Result<Option<(Armed, usize)>, String> {
    match std::env::var("SSDREC_FAULTS") {
        Ok(v) if !v.trim().is_empty() => {
            let specs = FaultSpec::parse_list(&v).map_err(|e| format!("SSDREC_FAULTS: {e}"))?;
            let n = specs.len();
            Ok(Some((arm_process(specs), n)))
        }
        _ => Ok(None),
    }
}

/// A named injection site. Zero-cost when nothing is armed; otherwise
/// counts the hit in the calling thread's plan and fires any spec
/// scheduled for it (see the module docs for the three kinds).
#[inline]
pub fn point(site: &str) -> Result<(), Injected> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Result<(), Injected> {
    let Some(plan) = current() else {
        return Ok(());
    };
    let kind = {
        let mut guard = lock(&plan);
        let plan = &mut *guard;
        if plan.specs.is_empty() {
            return Ok(());
        }
        let stats = plan.sites.entry(site.to_string()).or_default();
        stats.hits += 1;
        let kind = plan
            .specs
            .iter_mut()
            .find(|(s, consumed)| !consumed && s.site == site && s.nth == stats.hits)
            .map(|(s, consumed)| {
                *consumed = true;
                s.kind
            });
        stats.fired += u64::from(kind.is_some());
        kind
    }; // lock released before any sleep/panic
    match kind {
        None => Ok(()),
        Some(FaultKind::Error) => Err(Injected {
            site: site.to_string(),
        }),
        Some(FaultKind::DelayMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultKind::Panic) => panic!("ssdrec-faults: injected panic at {site}"),
    }
}

/// Apply `f` to the counters of the plan the calling thread fires from
/// (empty when it fires from none).
fn with_sites<R>(f: impl FnOnce(&BTreeMap<String, SiteStats>) -> R) -> R {
    match current() {
        Some(plan) => f(&lock(&plan).sites),
        None => f(&BTreeMap::new()),
    }
}

/// How many times `site` was traversed under the calling thread's plan.
pub fn hits(site: &str) -> u64 {
    with_sites(|s| s.get(site).map_or(0, |s| s.hits))
}

/// How many faults fired at `site` under the calling thread's plan.
pub fn fired(site: &str) -> u64 {
    with_sites(|s| s.get(site).map_or(0, |s| s.fired))
}

/// Total faults fired across all sites of the calling thread's plan since
/// it was armed.
pub fn total_fired() -> u64 {
    with_sites(|s| s.values().map(|s| s.fired).sum())
}

/// Per-site `(site, hits, fired)` counters of the calling thread's plan,
/// sorted by site name.
pub fn snapshot() -> Vec<(String, u64, u64)> {
    with_sites(|s| {
        s.iter()
            .map(|(k, v)| (k.clone(), v.hits, v.fired))
            .collect()
    })
}
