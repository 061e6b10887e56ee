//! A minimal property-testing framework: seeded generation, configurable
//! case counts and greedy input shrinking, with no external dependencies.
//!
//! Tests are written through the [`property!`](crate::property) macro:
//!
//! ```
//! use ssdrec_testkit::{gens, property};
//!
//! property! {
//!     cases = 64;
//!
//!     /// Reversal is an involution.
//!     fn reverse_involution(xs in gens::vecs(gens::usizes(0, 100), 0, 20)) {
//!         let mut ys = xs.clone();
//!         ys.reverse();
//!         ys.reverse();
//!         assert_eq!(xs, ys);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! On failure the framework re-runs the property on smaller candidate inputs
//! (greedy first-improvement shrinking) and reports the smallest input that
//! still fails, together with the seed needed to replay it.
//!
//! Generators built by [`gens`](crate::gens) combinators shrink; generators
//! built with [`Gen::from_fn`] or [`Gen::map`] do not (the framework then
//! reports the original failing input).

use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use ssdrec_base::Rng;

/// Configuration for one [`forall`] run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Master seed; each case derives its own child stream. Overridable at
    /// run time with the `SSDREC_PROP_SEED` environment variable.
    pub seed: u64,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        let seed = std::env::var("SSDREC_PROP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x55D2_EC00_7E57_0001);
        Config {
            cases: 64,
            seed,
            max_shrink_iters: 2_000,
        }
    }
}

impl Config {
    /// A config with the given case count and default seed.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// A value generator paired with a shrinker.
///
/// `g` draws a value from an [`Rng`]; `s` proposes strictly "smaller"
/// candidate values for shrinking (may be empty).
#[derive(Clone)]
pub struct Gen<T> {
    g: Rc<dyn Fn(&mut Rng) -> T>,
    s: Rc<dyn Fn(&T) -> Vec<T>>,
}

impl<T: 'static> Gen<T> {
    /// A generator from explicit generate and shrink functions.
    pub fn new(g: impl Fn(&mut Rng) -> T + 'static, s: impl Fn(&T) -> Vec<T> + 'static) -> Self {
        Gen {
            g: Rc::new(g),
            s: Rc::new(s),
        }
    }

    /// A generator with no shrinking (failing inputs are reported as drawn).
    pub fn from_fn(g: impl Fn(&mut Rng) -> T + 'static) -> Self {
        Gen::new(g, |_| Vec::new())
    }

    /// Draw one value.
    pub fn generate(&self, rng: &mut Rng) -> T {
        (self.g)(rng)
    }

    /// Candidate smaller values for `v`.
    pub fn shrink(&self, v: &T) -> Vec<T> {
        (self.s)(v)
    }

    /// Transform generated values. The mapped generator does not shrink
    /// (there is no inverse to pull candidates back through).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::from_fn(move |rng| f(self.generate(rng)))
    }
}

/// A tuple of generators usable with [`forall`].
pub trait GenSet {
    /// The tuple of generated values.
    type Value: Clone + std::fmt::Debug + 'static;
    /// Draw one value tuple.
    fn generate(&self, rng: &mut Rng) -> Self::Value;
    /// Shrink candidates: each varies a single component.
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value>;
}

macro_rules! impl_genset {
    ($($G:ident/$v:ident/$i:tt),+) => {
        impl<$($G: Clone + std::fmt::Debug + 'static),+> GenSet for ($(Gen<$G>,)+) {
            type Value = ($($G,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&v.$i) {
                        let mut tup = v.clone();
                        tup.$i = cand;
                        out.push(tup);
                    }
                )+
                out
            }
        }
    };
}

impl_genset!(A / a / 0);
impl_genset!(A / a / 0, B / b / 1);
impl_genset!(A / a / 0, B / b / 1, C / c / 2);
impl_genset!(A / a / 0, B / b / 1, C / c / 2, D / d / 3);
impl_genset!(A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4);

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static HOOK_INIT: Once = Once::new();

/// Install (once, globally) a panic hook that stays silent while this thread
/// is probing a property case, so shrinking does not spam stderr. Panics on
/// other threads are unaffected.
fn install_quiet_hook() {
    HOOK_INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Run `f` on one input, capturing a panic as `Err(message)`.
fn probe<V: Clone>(f: &mut impl FnMut(V), v: &V) -> Result<(), String> {
    SUPPRESS_PANIC_OUTPUT.with(|flag| flag.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(|| f(v.clone())));
    SUPPRESS_PANIC_OUTPUT.with(|flag| flag.set(false));
    r.map_err(|p| panic_message(&*p))
}

/// Check a property over `cfg.cases` generated inputs, shrinking any failure
/// to a locally minimal counter-example before panicking.
pub fn forall<G: GenSet>(cfg: &Config, gens: G, mut f: impl FnMut(G::Value)) {
    install_quiet_hook();
    let mut master = Rng::seed(cfg.seed);
    for case in 0..cfg.cases {
        let mut rng = master.split();
        let value = gens.generate(&mut rng);
        if let Err(first_msg) = probe(&mut f, &value) {
            let (min_value, min_msg, shrinks) =
                shrink_failure(cfg, &gens, &mut f, value, first_msg);
            panic!(
                "property failed (case {case} of {}, seed {:#x}, {shrinks} successful shrinks)\n\
                 minimal failing input: {:?}\n\
                 panic: {min_msg}\n\
                 replay with SSDREC_PROP_SEED={}",
                cfg.cases, cfg.seed, min_value, cfg.seed
            );
        }
    }
}

/// Greedy first-improvement shrink loop: adopt the first candidate that still
/// fails, restart from it, stop when no candidate fails or the iteration
/// budget is spent. Returns the minimal input, its panic message, and how
/// many shrink steps were adopted.
fn shrink_failure<G: GenSet>(
    cfg: &Config,
    gens: &G,
    f: &mut impl FnMut(G::Value),
    mut value: G::Value,
    mut msg: String,
) -> (G::Value, String, u32) {
    let mut budget = cfg.max_shrink_iters;
    let mut adopted = 0u32;
    'outer: while budget > 0 {
        for cand in gens.shrink(&value) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(m) = probe(f, &cand) {
                value = cand;
                msg = m;
                adopted += 1;
                continue 'outer;
            }
        }
        break; // no candidate fails: locally minimal
    }
    (value, msg, adopted)
}

/// Declare property tests: a `cases = N;` header followed by one or more
/// `fn name(binding in generator, ...) { body }` items, each expanded to a
/// `#[test]` running [`forall`]. See the [module docs](self) for an example.
#[macro_export]
macro_rules! property {
    (cases = $cases:expr;
     $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __cfg = $crate::prop::Config::with_cases($cases);
                $crate::prop::forall(&__cfg, ( $($gen,)+ ), |( $($arg,)+ )| $body);
            }
        )+
    };
}

/// Generator combinators for common types.
pub mod gens {
    use super::Gen;

    /// Shrink candidates from `v` toward `target`: the target itself, then
    /// `v` moved toward the target by `dist/2, dist/4, …, 1`. The trailing
    /// step of 1 lets greedy shrinking converge to an exact failure boundary.
    fn shrink_toward_u64(v: u64, target: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if v == target {
            return out;
        }
        out.push(target);
        let mut delta = v.abs_diff(target) / 2;
        while delta > 0 {
            let cand = if v > target { v - delta } else { v + delta };
            if cand != v && cand != target && !out.contains(&cand) {
                out.push(cand);
            }
            delta /= 2;
        }
        out
    }

    /// Uniform `usize` in the half-open range `[lo, hi)`, shrinking toward
    /// `lo`.
    pub fn usizes(lo: usize, hi: usize) -> Gen<usize> {
        assert!(lo < hi, "usizes: empty range [{lo}, {hi})");
        Gen::new(
            move |rng| rng.between(lo, hi - 1),
            move |&v| {
                shrink_toward_u64(v as u64, lo as u64)
                    .into_iter()
                    .map(|x| x as usize)
                    .collect()
            },
        )
    }

    /// Uniform `u64` over the full range, shrinking toward 0.
    pub fn u64s() -> Gen<u64> {
        Gen::new(|rng| rng.next_u64(), |&v| shrink_toward_u64(v, 0))
    }

    /// Uniform `f32` in `[lo, hi)`, shrinking toward 0 clamped into range
    /// (or toward `lo` when 0 is outside the range).
    pub fn f32s(lo: f32, hi: f32) -> Gen<f32> {
        assert!(lo < hi, "f32s: empty range [{lo}, {hi})");
        Gen::new(
            move |rng| rng.uniform(lo, hi),
            move |&v| {
                let target = if (lo..hi).contains(&0.0) { 0.0 } else { lo };
                let mut out = Vec::new();
                if v != target {
                    out.push(target);
                    let half = target + (v - target) / 2.0;
                    if half != v && half != target {
                        out.push(half);
                    }
                }
                out
            },
        )
    }

    /// Uniform `f64` in `[lo, hi)`, shrinking toward 0 clamped into range.
    pub fn f64s(lo: f64, hi: f64) -> Gen<f64> {
        assert!(lo < hi, "f64s: empty range [{lo}, {hi})");
        Gen::new(
            move |rng| rng.uniform_f64(lo, hi),
            move |&v| {
                let target = if (lo..hi).contains(&0.0) { 0.0 } else { lo };
                let mut out = Vec::new();
                if v != target {
                    out.push(target);
                    let half = target + (v - target) / 2.0;
                    if half != v && half != target {
                        out.push(half);
                    }
                }
                out
            },
        )
    }

    /// Fair coin, `true` shrinking to `false`.
    pub fn bools() -> Gen<bool> {
        Gen::new(
            |rng| rng.bernoulli(0.5),
            |&v| if v { vec![false] } else { Vec::new() },
        )
    }

    /// Vector with uniformly drawn length in the **inclusive** range
    /// `[min_len, max_len]`. Shrinks by halving the length, dropping single
    /// elements, then shrinking individual elements.
    pub fn vecs<T: Clone + std::fmt::Debug + 'static>(
        elem: Gen<T>,
        min_len: usize,
        max_len: usize,
    ) -> Gen<Vec<T>> {
        assert!(min_len <= max_len, "vecs: empty length range");
        let elem_s = elem.clone();
        Gen::new(
            move |rng| {
                let len = rng.between(min_len, max_len);
                (0..len).map(|_| elem.generate(rng)).collect()
            },
            move |v: &Vec<T>| {
                let mut out: Vec<Vec<T>> = Vec::new();
                // Length shrinks (respecting the floor).
                if v.len() > min_len {
                    let half = (v.len() / 2).max(min_len);
                    if half < v.len() {
                        out.push(v[..half].to_vec());
                    }
                    for i in 0..v.len() {
                        let mut shorter = v.clone();
                        shorter.remove(i);
                        out.push(shorter);
                    }
                }
                // Element shrinks, one position at a time.
                for (i, x) in v.iter().enumerate() {
                    for cand in elem_s.shrink(x) {
                        let mut w = v.clone();
                        w[i] = cand;
                        out.push(w);
                    }
                }
                out
            },
        )
    }

    /// Vector of exactly `len` elements (element shrinking only).
    pub fn vec_exact<T: Clone + std::fmt::Debug + 'static>(
        elem: Gen<T>,
        len: usize,
    ) -> Gen<Vec<T>> {
        vecs(elem, len, len)
    }
}

#[cfg(test)]
mod tests {
    use super::gens;
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config::with_cases(100);
        let counter = std::cell::Cell::new(0u32);
        forall(&cfg, (gens::usizes(0, 50),), |(_n,)| {
            counter.set(counter.get() + 1);
        });
        assert_eq!(counter.get(), 100);
    }

    #[test]
    fn same_seed_same_cases() {
        let cfg = Config {
            cases: 20,
            seed: 99,
            max_shrink_iters: 0,
        };
        let mut a = Vec::new();
        forall(&cfg, (gens::u64s(),), |(v,)| a.push(v));
        let mut b = Vec::new();
        forall(&cfg, (gens::u64s(),), |(v,)| b.push(v));
        assert_eq!(a, b);
    }

    /// The acceptance-criteria shrinking demonstration: a property failing
    /// for all `n >= 10` must shrink to exactly `n == 10`, and one failing
    /// for any vector containing a large element must shrink to the single
    /// smallest such vector.
    #[test]
    fn shrinking_finds_minimal_counterexamples() {
        let cfg = Config {
            cases: 200,
            seed: 1,
            max_shrink_iters: 5_000,
        };

        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            forall(&cfg, (gens::usizes(0, 1_000),), |(n,)| {
                assert!(n < 10, "too big");
            });
        }));
        let msg = panic_message(&*r.expect_err("property must fail"));
        assert!(
            msg.contains("minimal failing input: (10,)"),
            "expected shrink to 10, got:\n{msg}"
        );

        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            forall(&cfg, (gens::vecs(gens::usizes(0, 100), 0, 30),), |(xs,)| {
                assert!(xs.iter().all(|&x| x < 50), "has large element");
            });
        }));
        let msg = panic_message(&*r.expect_err("property must fail"));
        assert!(
            msg.contains("minimal failing input: ([50],)"),
            "expected shrink to [50], got:\n{msg}"
        );
    }

    #[test]
    fn shrink_reports_original_when_unshrinkable() {
        let cfg = Config {
            cases: 5,
            seed: 7,
            max_shrink_iters: 100,
        };
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            forall(&cfg, (Gen::from_fn(|rng| rng.between(5, 9)),), |(n,)| {
                assert!(n > 100);
            });
        }));
        let msg = panic_message(&*r.expect_err("property must fail"));
        assert!(msg.contains("0 successful shrinks"), "got:\n{msg}");
    }

    #[test]
    fn multi_component_tuples_shrink_componentwise() {
        let cfg = Config {
            cases: 100,
            seed: 3,
            max_shrink_iters: 5_000,
        };
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            forall(
                &cfg,
                (gens::usizes(0, 100), gens::usizes(0, 100)),
                |(a, b)| {
                    assert!(a + b < 40);
                },
            );
        }));
        let msg = panic_message(&*r.expect_err("property must fail"));
        // Greedy shrinking lands on a minimal pair summing to exactly 40.
        let start = msg
            .find("minimal failing input: (")
            .expect("input in message")
            + "minimal failing input: (".len();
        let rest = &msg[start..];
        let end = rest.find(')').unwrap();
        let nums: Vec<usize> = rest[..end]
            .split(',')
            .map(|s| s.trim().parse().unwrap())
            .collect();
        assert_eq!(nums[0] + nums[1], 40, "non-minimal pair in:\n{msg}");
    }

    #[test]
    fn map_transforms_values() {
        let cfg = Config::with_cases(30);
        forall(&cfg, (gens::usizes(0, 10).map(|n| n * 2),), |(even,)| {
            assert_eq!(even % 2, 0);
        });
    }

    #[test]
    fn bool_and_float_gens_stay_in_range() {
        let cfg = Config::with_cases(100);
        forall(
            &cfg,
            (gens::f32s(-2.0, 3.0), gens::f64s(0.5, 1.5), gens::bools()),
            |(x, y, _b)| {
                assert!((-2.0..3.0).contains(&x));
                assert!((0.5..1.5).contains(&y));
            },
        );
    }
}
