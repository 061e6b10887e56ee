//! The crate's transcendentals: `exp`, `ln`, `tanh` and the logistic
//! `sigmoid` on `f32`, plus [`lstm_cell`], one LSTM hidden unit's step
//! spelled with them.
//!
//! # Why not the platform's `expf` / `tanhf`
//!
//! Two reasons, both about the kernel bits-contract
//! ([`crate::backend`], version 2):
//!
//! * **Bits that depend on nothing but the inputs.** A libm call is opaque:
//!   which variant runs is the host's C library's choice (glibc picks an
//!   `expf` per CPU through an ifunc), so trained bits could move with the
//!   machine. These functions are built only from IEEE-754 add, multiply
//!   and divide, integer bit operations and compares — every one of them
//!   exactly specified — so their bits are a function of the argument alone.
//! * **The vector width.** They are `#[inline(always)]` and branch-free, so
//!   a loop over them compiled inside a `per_isa!` body vectorises lane for
//!   lane: every [`TileIsa`](crate::backend::TileIsa) build, at every thread
//!   count, reproduces the scalar function's bits. Rust never contracts
//!   `a*b + c` into a fused multiply-add and never reassociates, so no
//!   build can differ. A libm call per element pins a loop at one lane.
//!
//! # Construction
//!
//! [`exp`] reduces `x = k·ln 2 + r` with `|r| ≲ ln 2 / 2` (Cody–Waite: `ln
//! 2` split into a 9-bit head, whose product with any `k` in range is
//! exact, and a tail), rounds `k` with the shift trick (adding `1.5·2²³`
//! leaves `k` in the low mantissa bits, no float→int conversion), evaluates
//! a degree-7 minimax polynomial for `eʳ` and scales by `2ᵏ` as two exact
//! powers of two, so an overflowing or subnormal result is rounded once.
//! [`ln`] splits `x = 2ᵉ·m` with `m ∈ [√½, √2)` from the bits (subnormals
//! scaled by `2²³` first) and evaluates a minimax polynomial in `m − 1`;
//! [`tanh`] is an odd minimax polynomial below `|x| = 0.625` and
//! `1 − 2/(e^{2|x|} + 1)` above, with the sign copied back; [`sigmoid`] is
//! `1/(1 + e^{−x})`. The polynomials are the Cephes single-precision
//! coefficients. No FMA, no table, no libm.
//!
//! # Error bounds
//!
//! Measured exhaustively over every `f32` input against the `f64`
//! functions rounded to `f32` (x86-64):
//!
//! | function    | max error | where                                  |
//! |-------------|-----------|----------------------------------------|
//! | [`exp`]     | 1 ulp     | every input, subnormal results included |
//! | [`ln`]      | 1 ulp     | every positive input, subnormals included |
//! | [`tanh`]    | 1 ulp     | every input (glibc's `tanhf`: 2 ulp)    |
//! | [`sigmoid`] | 2 ulp     | every input with a normal result (`x ≥ −87.33`) |
//!
//! Below `x = −88.72` [`sigmoid`]'s `e^{−x}` overflows and the result is
//! `+0`, where the exact value is subnormal — the same as the
//! `1/(1 + e^{−x})` spelling has always given. The unit tests hold a strided
//! sweep over all bit patterns to these bounds.
//!
//! # Special values
//!
//! NaN in gives NaN out. `exp(−∞) = +0`, `exp(+∞) = +∞`, and every input
//! below `−104` gives exactly `+0` — the `−1e9` pad mask of the softmax
//! kernels gets zero probability. `ln(±0) = −∞`, `ln(+∞) = +∞`, `ln` of a
//! negative is NaN, `ln(1) = +0`. `tanh(±0) = ±0`, `tanh(±∞) = ±1`.

/// `log₂ e`.
const LOG2E: f32 = std::f32::consts::LOG2_E;

/// `1.5·2²³`: added to a float below `2²²` in magnitude, it rounds that
/// float to an integer held in the sum's low mantissa bits.
const ROUND_SHIFT: f32 = 12_582_912.0;

/// The head of the Cody–Waite split of `ln 2`, `0.693359375`: 9
/// significant bits, so `k·LN2_HI` is exact for every `|k| < 2¹⁵`.
const LN2_HI: f32 = 355.0 / 512.0;

/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;

/// Inputs above this give `+∞` once the scaling rounds, and below
/// [`EXP_MIN`] exactly `+0`; between them `k` stays in `[−150, 128]`.
const EXP_MAX: f32 = 89.0;

/// See [`EXP_MAX`].
const EXP_MIN: f32 = -104.0;

/// `2ᵏ` for `k ∈ [−126, 127]`, straight from the exponent bits.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// `eˣ`, within 1 ulp (module docs).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Every result below `EXP_MIN` rounds to `+0`. Those inputs compute
    // `e⁰` instead and are replaced at the end, so no lane's arithmetic
    // underflows: on x86 an underflowing multiply takes a microcode assist
    // (≈ 30 ns), which a `−1e9` pad mask would pay on every masked entry.
    // NaN fails every compare and flows through the arithmetic.
    let zero = x < EXP_MIN;
    let x = if zero { 0.0 } else { x };
    let x = if x > EXP_MAX { EXP_MAX } else { x };
    let shifted = x * LOG2E + ROUND_SHIFT;
    let kf = shifted - ROUND_SHIFT;
    let k = (shifted.to_bits() as i32).wrapping_sub(ROUND_SHIFT.to_bits() as i32);
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let r2 = r * r;
    let p = (((((1.987_569_2e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_5e-1)
        * r
        + 5e-1)
        * r2
        + r
        + 1.0;
    // `2ᵏ` as two factors, each a normal float for every `k` in range.
    let k1 = k >> 1;
    let e = p * pow2(k1) * pow2(k.wrapping_sub(k1));
    if zero {
        0.0
    } else {
        e
    }
}

/// The natural logarithm, within 1 ulp (module docs).
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    // Zeros, negatives and subnormals; the latter are scaled to normal.
    let tiny = x < f32::MIN_POSITIVE;
    let xs = if tiny { x * 8_388_608.0 } else { x };
    let bits = xs.to_bits();
    // `x = 2ᵉ·m`, `m ∈ [½, 1)`, then `m ∈ [√½, √2)`.
    let e = ((bits >> 23) as i32).wrapping_sub(if tiny { 126 + 23 } else { 126 });
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    let low = m < std::f32::consts::FRAC_1_SQRT_2;
    let e = if low { e.wrapping_sub(1) } else { e };
    let f = if low { m + m - 1.0 } else { m - 1.0 };
    let f2 = f * f;
    let y = ((((((((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_9e-1) * f
        - 1.242_014_1e-1)
        * f
        + 1.424_932_3e-1)
        * f
        - 1.666_805_8e-1)
        * f
        + 2.000_071_4e-1)
        * f
        - 2.499_999_4e-1)
        * f
        + 3.333_333e-1)
        * f
        * f2;
    let ef = e as f32;
    let y = y + LN2_LO * ef;
    let y = y - 0.5 * f2;
    let r = f + y + LN2_HI * ef;
    let r = if x == f32::INFINITY { x } else { r };
    let r = if x == 0.0 { f32::NEG_INFINITY } else { r };
    // Negatives and NaN.
    if x >= 0.0 {
        r
    } else {
        f32::NAN
    }
}

/// The hyperbolic tangent, within 1 ulp (module docs).
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let sign = x.to_bits() & 0x8000_0000;
    let a = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let a2 = a * a;
    let near = ((((-5.704_988_7e-3 * a2 + 2.063_909e-2) * a2 - 5.373_971_6e-2) * a2
        + 1.333_144_2e-1)
        * a2
        - 3.333_328e-1)
        * a2
        * a
        + a;
    let far = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let r = if a < 0.625 { near } else { far };
    f32::from_bits(r.to_bits() | sign)
}

/// The logistic function `1/(1 + e^{−x})`, within 2 ulp wherever the
/// result is a normal float (module docs).
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// One LSTM hidden unit after one step: see [`lstm_cell`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LstmCell {
    /// The activated gates: `σ(zᵢ)`, `σ(z_f)`, `σ(zₒ)` and the candidate
    /// `tanh(z_c)`, in that order.
    pub gates: [f32; 4],
    /// The new cell state `c = f·c_prev + i·ĉ`.
    pub c: f32,
    /// `tanh(c)`.
    pub tc: f32,
    /// The hidden output `h = o·tanh(c)`.
    pub h: f32,
}

/// One LSTM hidden unit's step from its four gate pre-activations `z`
/// (input, forget, output, candidate) and its previous cell state: the
/// per-gate chain of the unrolled cell — `σ` on three gates, `tanh` on the
/// candidate, `c = f·c_prev + i·ĉ`, `h = o·tanh(c)` — with the
/// association of its graph nodes. The fused recurrence
/// ([`crate::kernels::lstm_seq`]) vectorises exactly this, and the parity
/// suite holds it to it.
#[inline(always)]
pub fn lstm_cell(z: [f32; 4], c_prev: f32) -> LstmCell {
    let [zi, zf, zo, zc] = z;
    let gates = [sigmoid(zi), sigmoid(zf), sigmoid(zo), tanh(zc)];
    let [ig, fg, og, cand] = gates;
    let c = fg * c_prev + ig * cand;
    let tc = tanh(c);
    LstmCell {
        gates,
        c,
        tc,
        h: og * tc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{per_isa, ulp_distance, with_tile_isa, TileIsa};

    /// A strided walk over all 2³² bit patterns: every sign, exponent and
    /// a spread of mantissas.
    fn strided_inputs() -> impl Iterator<Item = f32> {
        (0..=u32::MAX / 4093).map(|i| f32::from_bits(i.wrapping_mul(4093).wrapping_add(i % 7)))
    }

    /// The worst ulp distance of `f` from the `f64` reference rounded to
    /// `f32`, over the strided inputs `keep` accepts.
    fn worst_ulps(f: fn(f32) -> f32, reference: fn(f64) -> f64, keep: fn(f32) -> bool) -> u64 {
        strided_inputs()
            .filter(|&x| x.is_finite() && keep(x))
            .map(|x| {
                let d = ulp_distance(f(x), reference(x as f64) as f32);
                assert!(d != u64::MAX, "NaN at {x:e}");
                d
            })
            .max()
            .expect("some inputs")
    }

    #[test]
    fn strided_sweep_stays_within_the_stated_bounds() {
        let any = |_: f32| true;
        assert!(worst_ulps(exp, f64::exp, any) <= 1, "exp");
        assert!(worst_ulps(ln, f64::ln, |x| x >= 0.0) <= 1, "ln");
        assert!(worst_ulps(tanh, f64::tanh, any) <= 1, "tanh");
        let sig64 = |x: f64| 1.0 / (1.0 + (-x).exp());
        assert!(worst_ulps(sigmoid, sig64, |x| x >= -87.33) <= 2, "sigmoid");
        // Below that the exact result is subnormal and `sigmoid` returns a
        // value in `[0, f32::MIN_POSITIVE)`.
        for x in strided_inputs().filter(|&x| x < -87.33) {
            let s = sigmoid(x);
            assert!(
                (0.0..f32::MIN_POSITIVE).contains(&s),
                "sigmoid({x:e}) = {s:e}"
            );
        }
    }

    fn assert_bits(got: f32, want: f32, ctx: &str) {
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {got:e} vs {want:e}");
    }

    #[test]
    fn special_values() {
        let sub = f32::from_bits(1);
        let big_sub = f32::from_bits(0x007f_ffff);
        for f in [exp, ln, tanh, sigmoid] {
            assert!(f(f32::NAN).is_nan() && f(-f32::NAN).is_nan());
        }

        for z in [0.0, -0.0, sub, -sub, big_sub] {
            assert_bits(exp(z), 1.0, &format!("exp({z:e})"));
        }
        assert_bits(exp(f32::INFINITY), f32::INFINITY, "exp(+inf)");
        assert_bits(exp(f32::NEG_INFINITY), 0.0, "exp(-inf)");
        // Overflow: ln(f32::MAX) = 88.7228391…
        assert!(exp(88.72283).is_finite() && exp(88.72283) > 3.4e38);
        assert_bits(exp(88.7229), f32::INFINITY, "exp past overflow");
        // Underflow: ln(2^-150) = −103.9720771…; subnormal results above it.
        assert!(exp(-103.9) > 0.0 && exp(-103.9) < f32::MIN_POSITIVE);
        assert!(exp(-87.4) < f32::MIN_POSITIVE && exp(-87.3) >= f32::MIN_POSITIVE);
        assert_bits(exp(-103.98), 0.0, "exp just below underflow");
        assert_bits(exp(-1e30), 0.0, "exp far below underflow");

        assert_bits(ln(0.0), f32::NEG_INFINITY, "ln(+0)");
        assert_bits(ln(-0.0), f32::NEG_INFINITY, "ln(-0)");
        assert_bits(ln(1.0), 0.0, "ln(1)");
        assert_bits(ln(f32::INFINITY), f32::INFINITY, "ln(+inf)");
        for neg in [-sub, -1.0, f32::NEG_INFINITY] {
            assert!(ln(neg).is_nan(), "ln({neg:e})");
        }
        for s in [sub, big_sub] {
            let want = (s as f64).ln() as f32;
            assert!(ulp_distance(ln(s), want) <= 1, "ln({s:e})");
        }
        assert!(ln(f32::MAX).is_finite() && ln(f32::MIN_POSITIVE).is_finite());

        for z in [0.0, -0.0, sub, -sub, big_sub] {
            assert_bits(tanh(z), z, &format!("tanh({z:e})"));
        }
        assert_bits(tanh(f32::INFINITY), 1.0, "tanh(+inf)");
        assert_bits(tanh(f32::NEG_INFINITY), -1.0, "tanh(-inf)");
        assert_bits(tanh(f32::MAX), 1.0, "tanh(max)");

        assert_bits(sigmoid(0.0), 0.5, "sigmoid(0)");
        assert_bits(sigmoid(f32::INFINITY), 1.0, "sigmoid(+inf)");
        assert_bits(sigmoid(f32::NEG_INFINITY), 0.0, "sigmoid(-inf)");
        assert_bits(sigmoid(-88.8), 0.0, "sigmoid past exp's overflow");
    }

    /// The softmax kernels mask padded positions with `−1e9`: after the
    /// max shift such a logit must get exactly zero probability.
    #[test]
    fn the_pad_mask_gets_exactly_zero() {
        for max in [-5.0f32, 0.0, 0.3, 17.0, 1e3] {
            assert_bits(exp(-1e9 - max), 0.0, &format!("exp(-1e9 - {max})"));
        }
    }

    per_isa! {
        /// Every function over `xs`, at the active build's width.
        fn map_all(xs: &[f32], out: &mut [f32]) = |_W| map_all_in(xs, out);
    }

    #[inline(always)]
    fn map_all_in(xs: &[f32], out: &mut [f32]) {
        let (e, rest) = out.split_at_mut(xs.len());
        let (l, rest) = rest.split_at_mut(xs.len());
        let (t, s) = rest.split_at_mut(xs.len());
        for (o, &x) in e.iter_mut().zip(xs) {
            *o = exp(x);
        }
        for (o, &x) in l.iter_mut().zip(xs) {
            *o = ln(x);
        }
        for (o, &x) in t.iter_mut().zip(xs) {
            *o = tanh(x);
        }
        for (o, &x) in s.iter_mut().zip(xs) {
            *o = sigmoid(x);
        }
    }

    #[test]
    fn every_build_is_bit_equal_to_the_scalar_function() {
        let xs: Vec<f32> = strided_inputs().collect();
        let scalar: Vec<f32> = [exp, ln, tanh, sigmoid]
            .iter()
            .flat_map(|f| xs.iter().map(move |&x| std::hint::black_box(f)(x)))
            .collect();
        for isa in TileIsa::supported() {
            let mut got = vec![0.0; 4 * xs.len()];
            with_tile_isa(isa, || map_all(&xs, &mut got));
            for (i, (w, g)) in scalar.iter().zip(&got).enumerate() {
                let same = w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan());
                let x = xs[i % xs.len()];
                assert!(
                    same,
                    "{isa:?}, function {}, x = {x:e}: {g:e} vs {w:e}",
                    i / xs.len()
                );
            }
        }
    }
}
