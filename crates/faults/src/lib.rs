//! # ssdrec-faults
//!
//! A deterministic fault-injection runtime for chaos testing the serve and
//! training paths. Production code marks **named injection sites**:
//!
//! ```
//! fn read_request_guarded() -> Result<(), std::io::Error> {
//!     ssdrec_faults::point("serve.read")?;
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
//! [`arm_from_env`], read once by the CLI at startup) or programmatically
//! via [`arm`]. Per-site hit and fire counters ([`hits`], [`fired`],
//! [`snapshot`]) let tests and `/metrics` assert exactly which faults
//! triggered. Everything is deterministic: the Nth hit of a site fires the
//! same way on every run — there is no probabilistic injection, so chaos
//! tests are replayable bit-for-bit. (Test-side helpers — the `FaultPlan`
//! builder and fire-count assertions — live in `ssdrec_testkit::fault`,
//! which layers on this crate.)

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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

#[derive(Default)]
struct Registry {
    specs: Vec<(FaultSpec, bool)>, // (spec, consumed)
    sites: BTreeMap<String, SiteStats>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    specs: Vec::new(),
    sites: BTreeMap::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // A panic-kind fault unwinds through this lock by design; recover the
    // poisoned state rather than wedging every later site.
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arm a plan, replacing any previous one and resetting all counters.
/// An empty plan leaves the runtime disarmed.
pub fn arm(specs: Vec<FaultSpec>) {
    let mut reg = registry();
    reg.sites.clear();
    reg.specs = specs.into_iter().map(|s| (s, false)).collect();
    ARMED.store(!reg.specs.is_empty(), Ordering::SeqCst);
}

/// Arm from the `SSDREC_FAULTS` environment variable (if set). Returns how
/// many specs were armed; an unset or empty variable arms nothing.
pub fn arm_from_env() -> Result<usize, String> {
    match std::env::var("SSDREC_FAULTS") {
        Ok(v) if !v.trim().is_empty() => {
            let specs = FaultSpec::parse_list(&v).map_err(|e| format!("SSDREC_FAULTS: {e}"))?;
            let n = specs.len();
            arm(specs);
            Ok(n)
        }
        _ => Ok(0),
    }
}

/// Disarm everything and clear all counters. [`point`] returns to its
/// single-atomic-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    let mut reg = registry();
    reg.specs.clear();
    reg.sites.clear();
}

/// A named injection site. Zero-cost when disarmed; with a plan armed,
/// counts the hit and fires any spec scheduled for it (see crate docs for
/// the three kinds).
#[inline]
pub fn point(site: &str) -> Result<(), Injected> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Result<(), Injected> {
    let kind = {
        let mut reg = registry();
        let hits = {
            let stats = reg.sites.entry(site.to_string()).or_default();
            stats.hits += 1;
            stats.hits
        };
        let kind = reg
            .specs
            .iter_mut()
            .find(|(s, consumed)| !consumed && s.site == site && s.nth == hits)
            .map(|(s, consumed)| {
                *consumed = true;
                s.kind
            });
        if kind.is_some() {
            reg.sites.get_mut(site).expect("just inserted").fired += 1;
        }
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

/// How many times `site` was traversed while armed.
pub fn hits(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.hits)
}

/// How many faults fired at `site`.
pub fn fired(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.fired)
}

/// Total faults fired across all sites since the plan was armed.
pub fn total_fired() -> u64 {
    registry().sites.values().map(|s| s.fired).sum()
}

/// Per-site `(site, hits, fired)` counters, sorted by site name.
pub fn snapshot() -> Vec<(String, u64, u64)> {
    registry()
        .sites
        .iter()
        .map(|(k, v)| (k.clone(), v.hits, v.fired))
        .collect()
}

/// Whether any plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is global; tests arming plans must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parses_all_three_kinds() {
        assert_eq!(
            FaultSpec::parse("serve.read:error:1").unwrap(),
            FaultSpec {
                site: "serve.read".into(),
                kind: FaultKind::Error,
                nth: 1
            }
        );
        assert_eq!(
            FaultSpec::parse("a.b:delay250:3").unwrap().kind,
            FaultKind::DelayMs(250)
        );
        assert_eq!(
            FaultSpec::parse("x:panic:2").unwrap().kind,
            FaultKind::Panic
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "site",
            "site:error",
            "site:error:0",
            "site:error:x",
            ":error:1",
            "site:nonsense:1",
            "site:delayxx:1",
            "a:error:1:extra",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(FaultSpec::parse_list("a:error:1,bad").is_err());
    }

    #[test]
    fn parse_list_handles_whitespace_and_empties() {
        let specs = FaultSpec::parse_list(" a:error:1 , b:panic:2 ,").unwrap();
        assert_eq!(specs.len(), 2);
        assert!(FaultSpec::parse_list("").unwrap().is_empty());
    }

    #[test]
    fn disarmed_points_are_silent_and_uncounted() {
        let _g = locked();
        disarm();
        for _ in 0..100 {
            point("nowhere").unwrap();
        }
        assert_eq!(hits("nowhere"), 0);
        assert_eq!(total_fired(), 0);
    }

    #[test]
    fn error_fires_on_exactly_the_nth_hit() {
        let _g = locked();
        arm(vec![FaultSpec {
            site: "t.err".into(),
            kind: FaultKind::Error,
            nth: 3,
        }]);
        assert!(point("t.err").is_ok());
        assert!(point("t.err").is_ok());
        let e = point("t.err").unwrap_err();
        assert_eq!(e.site, "t.err");
        // Consumed: later hits pass again.
        assert!(point("t.err").is_ok());
        assert_eq!(hits("t.err"), 4);
        assert_eq!(fired("t.err"), 1);
        disarm();
    }

    #[test]
    fn sites_count_independently() {
        let _g = locked();
        arm(vec![
            FaultSpec::parse("a:error:1").unwrap(),
            FaultSpec::parse("b:error:2").unwrap(),
        ]);
        assert!(point("b").is_ok()); // b hit 1: passes
        assert!(point("a").is_err()); // a hit 1: fires
        assert!(point("b").is_err()); // b hit 2: fires
        assert_eq!(total_fired(), 2);
        assert_eq!(snapshot(), vec![("a".into(), 1, 1), ("b".into(), 2, 1)]);
        disarm();
    }

    #[test]
    fn panic_kind_panics_and_registry_recovers() {
        let _g = locked();
        arm(vec![FaultSpec::parse("t.panic:panic:1").unwrap()]);
        let r = std::panic::catch_unwind(|| point("t.panic"));
        assert!(r.is_err(), "panic kind must panic");
        // The runtime stays usable after the unwind.
        assert!(point("t.panic").is_ok());
        assert_eq!(fired("t.panic"), 1);
        disarm();
    }

    #[test]
    fn delay_kind_blocks_then_proceeds() {
        let _g = locked();
        arm(vec![FaultSpec::parse("t.slow:delay30:1").unwrap()]);
        let t0 = std::time::Instant::now();
        assert!(point("t.slow").is_ok());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
        // Second hit is undelayed (spec consumed).
        let t1 = std::time::Instant::now();
        assert!(point("t.slow").is_ok());
        assert!(t1.elapsed() < std::time::Duration::from_millis(30));
        disarm();
    }

    #[test]
    fn arm_from_env_roundtrip() {
        let _g = locked();
        // Not set → disarmed, Ok(0).
        std::env::remove_var("SSDREC_FAULTS");
        assert_eq!(arm_from_env().unwrap(), 0);
        assert!(!is_armed());
        std::env::set_var("SSDREC_FAULTS", "e.x:error:1,e.y:delay10:2");
        assert_eq!(arm_from_env().unwrap(), 2);
        assert!(is_armed());
        assert!(point("e.x").is_err());
        std::env::set_var("SSDREC_FAULTS", "broken-spec");
        assert!(arm_from_env().is_err());
        std::env::remove_var("SSDREC_FAULTS");
        disarm();
    }

    #[test]
    fn injected_converts_to_io_error() {
        let e: std::io::Error = Injected { site: "s".into() }.into();
        assert!(e.to_string().contains("injected fault at s"));
    }
}
