//! Test-side hooks for the `ssdrec-faults` injection runtime: a
//! [`FaultPlan`] builder (programmatic or parsed from the `SSDREC_FAULTS`
//! spec format), armed on the calling thread or as the process default,
//! and fire-count assertions.
//!
//! ```
//! use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};
//!
//! let armed = FaultPlan::new().error("demo.site", 1).arm();
//! assert!(ssdrec_faults::point("demo.site").is_err());
//! assert_fired_exactly("demo.site", 1);
//! drop(armed); // restores the thread's previous plan
//! ```

use ssdrec_faults::{Armed, FaultKind, FaultSpec};

/// A builder for a set of fault specs, armed all at once via
/// [`FaultPlan::arm`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a plan from the `SSDREC_FAULTS` spec format
    /// (`site:kind:nth,...`, kinds `error` | `panic` | `delay<MS>`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        Ok(FaultPlan {
            specs: FaultSpec::parse_list(spec)?,
        })
    }

    fn with(mut self, site: &str, kind: FaultKind, nth: u64) -> Self {
        self.specs.push(FaultSpec {
            site: site.into(),
            kind,
            nth,
        });
        self
    }

    /// Add an error fault at `site`, firing on its `nth` (1-based) hit.
    pub fn error(self, site: &str, nth: u64) -> Self {
        self.with(site, FaultKind::Error, nth)
    }

    /// Add a `ms`-millisecond delay fault at `site` on its `nth` hit.
    pub fn delay_ms(self, site: &str, ms: u64, nth: u64) -> Self {
        self.with(site, FaultKind::DelayMs(ms), nth)
    }

    /// Add a panic fault at `site` on its `nth` hit.
    pub fn panic(self, site: &str, nth: u64) -> Self {
        self.with(site, FaultKind::Panic, nth)
    }

    /// Number of specs in the plan.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Arm the plan on the calling thread (see [`ssdrec_faults::arm`]).
    pub fn arm(self) -> Armed {
        ssdrec_faults::arm(self.specs)
    }

    /// Arm the plan as the process default, for sites reached on threads
    /// the test does not run (see [`ssdrec_faults::arm_process`]).
    pub fn arm_process(self) -> Armed {
        ssdrec_faults::arm_process(self.specs)
    }
}

/// Assert that exactly `n` faults fired at `site` under the calling
/// thread's plan, with a diagnostic that includes the site's hit count and
/// the plan's full snapshot.
#[track_caller]
pub fn assert_fired_exactly(site: &str, n: u64) {
    let fired = ssdrec_faults::fired(site);
    assert_eq!(
        fired,
        n,
        "fault site {site:?} fired {fired} time(s), expected {n} \
         ({} armed hits; plan: {:?})",
        ssdrec_faults::hits(site),
        ssdrec_faults::snapshot()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_and_arms() {
        let plan = FaultPlan::new()
            .error("tk.a", 1)
            .delay_ms("tk.b", 5, 1)
            .panic("tk.c", 2);
        assert_eq!(plan.len(), 3);
        let _armed = plan.arm();
        assert!(ssdrec_faults::point("tk.a").is_err());
        assert!(ssdrec_faults::point("tk.b").is_ok()); // delayed, not failed
        assert!(ssdrec_faults::point("tk.c").is_ok()); // fires on hit 2
        assert_fired_exactly("tk.a", 1);
        assert_fired_exactly("tk.b", 1);
        assert_fired_exactly("tk.c", 0);
    }

    #[test]
    fn parse_matches_env_format() {
        let plan = FaultPlan::parse("tk.p:error:2, tk.q:delay10:1").unwrap();
        assert_eq!(plan.len(), 2);
        let _armed = plan.arm();
        assert!(ssdrec_faults::point("tk.p").is_ok());
        assert!(ssdrec_faults::point("tk.p").is_err());
        assert_fired_exactly("tk.p", 1);
        assert!(FaultPlan::parse("nope").is_err());
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _armed = FaultPlan::new().error("tk.drop", 2).arm();
            assert!(ssdrec_faults::point("tk.drop").is_ok());
            assert_eq!(ssdrec_faults::hits("tk.drop"), 1);
        }
        assert!(ssdrec_faults::point("tk.drop").is_ok());
        assert_eq!(ssdrec_faults::hits("tk.drop"), 0);
        assert_eq!(ssdrec_faults::fired("tk.drop"), 0);
    }

    #[test]
    #[should_panic(expected = "fired 0 time(s), expected 1")]
    fn assertion_reports_mismatch() {
        let _armed = FaultPlan::new().error("tk.never", 99).arm();
        assert_fired_exactly("tk.never", 1);
    }
}
