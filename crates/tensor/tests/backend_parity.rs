//! Kernel parity: the property-tested kernel bits-contract.
//!
//! The production kernels (`ssdrec_tensor::backend`) must agree with the
//! straight-line oracle (`oracle/`, compiled only into the tests) within
//! [`KERNEL_BITS_MAX_ULPS`] (0 under contract v2 — exact bits) on
//! randomized shapes, including ragged/odd sizes that stress the `8×W`
//! panel edges, in every tile build the host can run (portable `W = 8`,
//! AVX2 `W = 8`, AVX-512F `W = 16`, each reached through the hidden
//! `with_tile_isa` entry point); the gemm must be insensitive to row
//! partitioning and to stale pool-buffer contents; and the fused graph ops
//! (bias+activation, scale+mask+softmax) must reproduce their unfused node
//! chains bit-for-bit — values *and* gradients. The sparse product and the
//! sequence-chunked LSTM are held to dense and whole-batch recurrences
//! built on the oracle's gemm. The fused LSTM node is held to the unrolled
//! chain it replaced (kept below as the oracle): forward bit for bit,
//! gradients within [`LSTM_GRAD_REL`]. The suffix-broadcast kernels are
//! held to the per-element `%` loops they replaced.

mod oracle;

use ssdrec_tensor::backend::{
    self, assert_within_ulps, with_tile_isa, TileIsa, KERNEL_BITS_MAX_ULPS,
};
use ssdrec_tensor::nn::{Linear, Lstm};
use ssdrec_tensor::{kernels, Activation, Binding, CsrMatrix, Graph, ParamStore, Rng, Tensor, Var};
use ssdrec_testkit::{gens, property, Gen};

/// Deterministic pseudo-random data in `[-1, 1)`.
fn fill(n: usize, salt: u64) -> Vec<f32> {
    let mut r = Rng::seed(salt ^ 0x5eed_babe);
    (0..n).map(|_| r.next_f32() * 2.0 - 1.0).collect()
}

/// Dimension generator biased toward the 8×8 panel-edge cases
/// {0,1,7,8,9,63,64,65}, shrinking toward 0.
fn dims() -> Gen<usize> {
    const EDGES: [usize; 8] = [0, 1, 7, 8, 9, 63, 64, 65];
    Gen::new(
        |rng| {
            if rng.between(0, 1) == 1 {
                EDGES[rng.between(0, EDGES.len() - 1)]
            } else {
                rng.between(0, 65)
            }
        },
        |&v| {
            let mut out = Vec::new();
            for c in [0, 1, v / 2, v.saturating_sub(1)] {
                if c < v && !out.contains(&c) {
                    out.push(c);
                }
            }
            out
        },
    )
}

/// Like [`dims`] but never 0 (for row kernels whose `n = 0` case is handled
/// in `kernels`).
fn dims1() -> Gen<usize> {
    const EDGES: [usize; 7] = [1, 7, 8, 9, 63, 64, 65];
    Gen::new(
        |rng| {
            if rng.between(0, 1) == 1 {
                EDGES[rng.between(0, EDGES.len() - 1)]
            } else {
                rng.between(1, 65)
            }
        },
        |&v| {
            let mut out = Vec::new();
            for c in [1, v / 2, v - 1] {
                if (1..v).contains(&c) && !out.contains(&c) {
                    out.push(c);
                }
            }
            out
        },
    )
}

/// Run `f` once in every tile build this host can run, narrowest first.
fn each_tile_build(mut f: impl FnMut(TileIsa)) {
    for isa in TileIsa::supported() {
        with_tile_isa(isa, || f(isa));
    }
}

/// A slice-level gemm: the oracle's or the production one.
type GemmRows = fn(&[f32], bool, &[f32], bool, usize, usize, usize, &mut [f32], usize, usize);

fn gemm_once(
    gemm: GemmRows,
    variant: usize,
    m: usize,
    k: usize,
    n: usize,
    seed: usize,
) -> Vec<f32> {
    let (ta, tb) = [(false, false), (true, false), (false, true), (true, true)][variant];
    let a = fill(m * k, seed as u64 * 4 + 1);
    let b = fill(k * n, seed as u64 * 4 + 2);
    let mut out = vec![0.0f32; m * n];
    gemm(&a, ta, &b, tb, m, k, n, &mut out, 0, m);
    out
}

property! {
    cases = 96;

    /// The production gemm matches the oracle within the pinned ULP bound
    /// on all four transpose variants, including degenerate and
    /// partial-panel shapes, in every tile build.
    fn gemm_parity_all_variants(
        m in dims(),
        k in dims(),
        n in dims(),
        variant in gens::usizes(0, 4),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let want = gemm_once(oracle::gemm_rows, variant, m, k, n, seed);
        each_tile_build(|isa| {
            let got = gemm_once(backend::gemm_rows, variant, m, k, n, seed);
            assert_within_ulps(
                &want,
                &got,
                KERNEL_BITS_MAX_ULPS,
                &format!("gemm {isa:?} variant={variant} m={m} k={k} n={n}"),
            );
        });
    }

    /// The gemm is insensitive to output-row partitioning: computing rows
    /// `[0, r)` and `[r, m)` separately is bit-identical to one call.
    /// This is the property that makes the thread pool's row chunking (and
    /// hence any thread count) bit-stable.
    fn gemm_row_partition_bit_identical(
        m in dims1(),
        k in dims(),
        n in dims1(),
        variant in gens::usizes(0, 4),
        r in gens::usizes(0, 66),
    ) {
        let r = r.min(m);
        let (ta, tb) = [(false, false), (true, false), (false, true), (true, true)][variant];
        let a = fill(m * k, 11);
        let b = fill(k * n, 12);
        each_tile_build(|isa| {
            let mut whole = vec![0.0f32; m * n];
            backend::gemm_rows(&a, ta, &b, tb, m, k, n, &mut whole, 0, m);
            let mut split = vec![0.0f32; m * n];
            let (lo, hi) = split.split_at_mut(r * n);
            backend::gemm_rows(&a, ta, &b, tb, m, k, n, lo, 0, r);
            backend::gemm_rows(&a, ta, &b, tb, m, k, n, hi, r, m);
            assert_within_ulps(
                &whole,
                &split,
                0,
                &format!("{isa:?} split at {r} (variant={variant} m={m} k={k} n={n})"),
            );
        });
    }

    /// Row softmax / log-softmax / scale+mask+softmax / LayerNorm parity on
    /// ragged shapes, in every tile build (the softmax family's
    /// exponentials run at the build's width). Inputs span `[-40, 40)` so
    /// row maxima sit far from most entries, and the mask pads with `-1e9`.
    fn row_kernel_parity(
        rows in dims(),
        n in dims1(),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let src: Vec<f32> = fill(rows * n, seed as u64).iter().map(|v| v * 40.0).collect();
        let gamma = fill(n, seed as u64 + 7);
        let beta = fill(n, seed as u64 + 8);
        let mask: Vec<f32> = fill(n, seed as u64 + 9)
            .into_iter()
            .map(|v| if v > 0.5 { -1e9 } else { v })
            .collect();
        let mut want = vec![0.0f32; rows * n];
        let mut got = vec![0.0f32; rows * n];
        each_tile_build(|isa| {
            for (label, run) in [
                ("softmax", 0usize),
                ("log_softmax", 1),
                ("scaled_masked_softmax", 2),
                ("layer_norm", 3),
            ] {
                want.fill(0.0);
                got.fill(0.0);
                match run {
                    0 => {
                        oracle::softmax_rows(&src, &mut want, n);
                        backend::softmax_rows(&src, &mut got, n);
                    }
                    1 => {
                        oracle::log_softmax_rows(&src, &mut want, n);
                        backend::log_softmax_rows(&src, &mut got, n);
                    }
                    2 => {
                        oracle::scaled_masked_softmax_rows(&src, 0.37, Some(&mask), &mut want, n);
                        backend::scaled_masked_softmax_rows(&src, 0.37, Some(&mask), &mut got, n);
                    }
                    _ => {
                        oracle::layer_norm_rows(&src, &gamma, &beta, &mut want, n);
                        backend::layer_norm_rows(&src, &gamma, &beta, &mut got, n);
                    }
                }
                assert_within_ulps(
                    &want,
                    &got,
                    KERNEL_BITS_MAX_ULPS,
                    &format!("{label} {isa:?} rows={rows} n={n}"),
                );
            }
        });
    }

    /// Fused bias+activation parity with the oracle in every tile build,
    /// and bit-equality of the fused graph node against the unfused
    /// add_bcast → activation chain (values and gradients).
    fn bias_act_matches_unfused_chain(
        rows in dims(),
        n in dims1(),
        act_ix in gens::usizes(0, 4),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let act = [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ][act_ix];
        let xs = fill(rows * n, seed as u64 + 1);
        let bs = fill(n, seed as u64 + 2);

        // Kernel-direct parity.
        let mut want = vec![0.0f32; rows * n];
        oracle::bias_act_rows(&xs, &bs, act, &mut want);
        each_tile_build(|isa| {
            let mut got = vec![0.0f32; rows * n];
            backend::bias_act_rows(&xs, &bs, act, &mut got);
            assert_within_ulps(
                &want,
                &got,
                KERNEL_BITS_MAX_ULPS,
                &format!("bias_act {act:?} {isa:?} rows={rows} n={n}"),
            );
        });

        // Fused node vs unfused chain, values + grads.
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.param(Tensor::new(xs.clone(), &[rows, n]));
            let b = g.param(Tensor::new(bs.clone(), &[n]));
            let y = if fused {
                g.bias_act(x, b, act)
            } else {
                let s = g.add_bcast(x, b);
                g.activation(s, act)
            };
            let loss = g.sum_all(y);
            let grads = g.backward(loss);
            (
                g.value(y).data().to_vec(),
                grads.get(x).unwrap().data().to_vec(),
                grads.get(b).unwrap().data().to_vec(),
            )
        };
        let (fy, fgx, fgb) = run(true);
        let (uy, ugx, ugb) = run(false);
        let ctx = format!("bias_act fused-vs-unfused {act:?}");
        assert_within_ulps(&uy, &fy, 0, &ctx);
        assert_within_ulps(&ugx, &fgx, 0, &ctx);
        assert_within_ulps(&ugb, &fgb, 0, &ctx);
    }

    /// Fused scale+mask+softmax vs the unfused scale → mask-add → softmax
    /// chain: bit-equal values and gradients (through both the scores and
    /// the mask), for no mask, a broadcast T×T mask and a full
    /// B×T×T mask.
    fn scaled_masked_softmax_matches_unfused_chain(
        b in dims1(),
        t in dims1(),
        mask_kind in gens::usizes(0, 3),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let b = b.min(9);
        let t = t.min(17);
        let scale = 0.37;
        let scores = fill(b * t * t, seed as u64 + 3);
        // An attention-style additive mask: mostly 0, some -1e9.
        let mask_len = if mask_kind == 1 { t * t } else { b * t * t };
        let mask_vals: Vec<f32> = fill(mask_len, seed as u64 + 4)
            .into_iter()
            .map(|v| if v > 0.4 { -1e9 } else { 0.0 })
            .collect();
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.param(Tensor::new(scores.clone(), &[b, t, t]));
            let mask = match mask_kind {
                0 => None,
                1 => Some(g.param(Tensor::new(mask_vals.clone(), &[t, t]))),
                _ => Some(g.param(Tensor::new(mask_vals.clone(), &[b, t, t]))),
            };
            let y = if fused {
                g.scaled_masked_softmax(x, scale, mask)
            } else {
                let s = g.scale(x, scale);
                let s = match mask {
                    Some(m) if mask_kind == 1 => g.add_bcast(s, m),
                    Some(m) => g.add(s, m),
                    None => s,
                };
                g.softmax_last(s)
            };
            let loss = g.sum_all(y);
            let grads = g.backward(loss);
            (
                g.value(y).data().to_vec(),
                grads.get(x).unwrap().data().to_vec(),
                mask.map(|m| grads.get(m).unwrap().data().to_vec()),
            )
        };
        let (fy, fgx, fgm) = run(true);
        let (uy, ugx, ugm) = run(false);
        let ctx = format!("smsm fused-vs-unfused mask_kind={mask_kind}");
        assert_within_ulps(&uy, &fy, 0, &ctx);
        assert_within_ulps(&ugx, &fgx, 0, &ctx);
        match (ugm, fgm) {
            (Some(u), Some(f)) => assert_within_ulps(&u, &f, 0, &ctx),
            (None, None) => {}
            _ => panic!("{ctx}: mask gradient presence mismatch"),
        }
    }
}

/// `(a, b)` shapes of the four matmul rank cases: 2×2, 3×3, the
/// rhs-broadcast 3×2 and the lhs-broadcast 2×3.
fn rank_case(case: usize, bs: usize, m: usize, k: usize, n: usize) -> [Vec<usize>; 2] {
    match case {
        0 => [vec![m, k], vec![k, n]],
        1 => [vec![bs, m, k], vec![bs, k, n]],
        2 => [vec![bs, m, k], vec![k, n]],
        _ => [vec![m, k], vec![bs, k, n]],
    }
}

fn filled(shape: &[usize], salt: u64) -> Tensor {
    Tensor::new(fill(shape.iter().product(), salt), shape)
}

/// The rhs-broadcast case (`B×m×k · k×n`) as it ran before it became one
/// `(B·m)×k` gemm, kept verbatim as the oracle on the oracle's gemm:
/// per-batch blocks for the forward and `dX`, a sequential batch loop
/// accumulating `dW` (its inner gemm was row-parallel, which the
/// row-partition property makes one `gemm_rows` call).
mod per_batch {
    use super::oracle::gemm_rows;

    pub fn forward(a: &[f32], b: &[f32], bs: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; bs * m * n];
        for i in 0..bs {
            gemm_rows(
                &a[i * m * k..(i + 1) * m * k],
                false,
                b,
                false,
                m,
                k,
                n,
                &mut out[i * m * n..(i + 1) * m * n],
                0,
                m,
            );
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        a: &[f32],
        b: &[f32],
        gout: &[f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut ga = vec![0.0f32; bs * m * k];
        let mut gb = vec![0.0f32; k * n];
        for i in 0..bs {
            gemm_rows(
                &gout[i * m * n..(i + 1) * m * n],
                false,
                b,
                true,
                m,
                n,
                k,
                &mut ga[i * m * k..(i + 1) * m * k],
                0,
                m,
            );
        }
        // gb accumulates across batches: the batch loop must stay
        // sequential so each element's adds keep batch-ascending order.
        for i in 0..bs {
            gemm_rows(
                &a[i * m * k..(i + 1) * m * k],
                true,
                &gout[i * m * n..(i + 1) * m * n],
                false,
                k,
                m,
                n,
                &mut gb,
                0,
                k,
            );
        }
        (ga, gb)
    }
}

property! {
    cases = 64;

    /// One-sided backward: for every rank case and every `need`, each
    /// requested gradient is bit-equal to the both-sided result and each
    /// unrequested one is `None`.
    fn one_sided_backward_matches_both_sided(
        m in dims(),
        k in dims(),
        n in dims(),
        case in gens::usizes(0, 16),
        seed in gens::usizes(0, 1 << 16),
    ) {
        // One index over rank case × batch size.
        let (bs, case) = ([1, 2, 7, 0][case % 4], case / 4);
        let [ash, bsh] = rank_case(case, bs, m, k, n);
        let seed = seed as u64;
        let (a, b) = (filled(&ash, seed + 1), filled(&bsh, seed + 2));
        let gout = filled(kernels::matmul(&a, &b).shape(), seed + 3);
        let both = kernels::matmul_backward(&a, &b, &gout, [true; 2]);
        for need in [[true, false], [false, true], [false, false]] {
            let got = kernels::matmul_backward(&a, &b, &gout, need);
            for side in 0..2 {
                let ctx = format!("{ash:?}×{bsh:?} need={need:?} side={side}");
                match (&got[side], &both[side]) {
                    (Some(g), Some(w)) if need[side] => {
                        assert_within_ulps(w.data(), g.data(), 0, &ctx)
                    }
                    (None, _) if !need[side] => {}
                    _ => panic!("{ctx}: gradient presence does not follow `need`"),
                }
            }
        }
    }

    /// The rhs-broadcast case as one 2-D gemm against the per-batch loop it
    /// replaced: forward, `dX` and `dW` bit for bit at `B ∈ {1, 2, 7, 64}`.
    fn rhs_broadcast_is_the_per_batch_loop(
        m in dims(),
        k in dims(),
        n in dims(),
        bs in gens::usizes(0, 4),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let bs = [1, 2, 7, 64][bs];
        let m = if bs == 64 { m.min(17) } else { m };
        let seed = seed as u64;
        let a = filled(&[bs, m, k], seed + 1);
        let b = filled(&[k, n], seed + 2);
        let gout = filled(&[bs, m, n], seed + 3);
        let ctx = format!("B={bs} m={m} k={k} n={n}");
        let want = per_batch::forward(a.data(), b.data(), bs, m, k, n);
        assert_within_ulps(&want, kernels::matmul(&a, &b).data(), 0, &ctx);
        let (want_ga, want_gb) = per_batch::backward(a.data(), b.data(), gout.data(), bs, m, k, n);
        let [ga, gb] = kernels::matmul_backward(&a, &b, &gout, [true; 2])
            .map(|g| g.expect("requested gradient"));
        assert_within_ulps(&want_ga, ga.data(), 0, &format!("{ctx} dX"));
        assert_within_ulps(&want_gb, gb.data(), 0, &format!("{ctx} dW"));
    }

    /// A transposed operand packed once per call gives the bits of the
    /// gemm packing it once per 8-row block: `dA = dC·Bᵀ` through the
    /// kernels against `gemm_rows(.., tb = true, ..)` block by block.
    fn pack_once_matches_pack_per_block(
        m in dims1(),
        k in dims(),
        n in dims(),
        seed in gens::usizes(0, 1 << 16),
    ) {
        let seed = seed as u64;
        let a = filled(&[m, k], seed + 1);
        let b = filled(&[k, n], seed + 2);
        let gout = filled(&[m, n], seed + 3);
        let mut want = vec![0.0f32; m * k];
        for (ci, block) in want.chunks_mut(8 * k.max(1)).enumerate() {
            let r0 = ci * 8;
            let r1 = (r0 + 8).min(m);
            backend::gemm_rows(
                gout.data(),
                false,
                b.data(),
                true,
                m,
                n,
                k,
                block,
                r0,
                r1,
            );
        }
        let [ga, _] = kernels::matmul_backward(&a, &b, &gout, [true, false]);
        let ctx = format!("pack once m={m} k={k} n={n}");
        assert_within_ulps(&want, ga.expect("dA").data(), 0, &ctx);
    }
}

/// The LSTM as it ran before `Graph::lstm_seq`: unrolled on the tape step by
/// step, ~27 nodes per timestep. Moved here verbatim from `nn::rnn` as the
/// oracle of the fused node; it registers the same twelve tensors under the
/// same names in the same order.
mod unrolled {
    use super::*;

    pub struct LstmCell {
        wi: Linear,
        ui: Linear,
        wf: Linear,
        uf: Linear,
        wo: Linear,
        uo: Linear,
        wc: Linear,
        uc: Linear,
        hidden: usize,
    }

    impl LstmCell {
        pub fn new(
            store: &mut ParamStore,
            name: &str,
            in_dim: usize,
            hidden: usize,
            rng: &mut Rng,
        ) -> Self {
            LstmCell {
                wi: Linear::new(store, &format!("{name}.wi"), in_dim, hidden, rng),
                ui: Linear::new_no_bias(store, &format!("{name}.ui"), hidden, hidden, rng),
                wf: Linear::new(store, &format!("{name}.wf"), in_dim, hidden, rng),
                uf: Linear::new_no_bias(store, &format!("{name}.uf"), hidden, hidden, rng),
                wo: Linear::new(store, &format!("{name}.wo"), in_dim, hidden, rng),
                uo: Linear::new_no_bias(store, &format!("{name}.uo"), hidden, hidden, rng),
                wc: Linear::new(store, &format!("{name}.wc"), in_dim, hidden, rng),
                uc: Linear::new_no_bias(store, &format!("{name}.uc"), hidden, hidden, rng),
                hidden,
            }
        }

        /// One step; returns `(h', c')`.
        pub fn step(&self, g: &mut Graph, bind: &Binding, x: Var, h: Var, c: Var) -> (Var, Var) {
            let gate = |g: &mut Graph, wx: &Linear, uh: &Linear, x: Var, h: Var| {
                let a = wx.forward(g, bind, x);
                let b = uh.forward(g, bind, h);
                g.add(a, b)
            };
            let i_s = gate(g, &self.wi, &self.ui, x, h);
            let i = g.sigmoid(i_s);
            let f_s = gate(g, &self.wf, &self.uf, x, h);
            let f = g.sigmoid(f_s);
            let o_s = gate(g, &self.wo, &self.uo, x, h);
            let o = g.sigmoid(o_s);
            let c_s = gate(g, &self.wc, &self.uc, x, h);
            let chat = g.tanh(c_s);
            let fc = g.mul(f, c);
            let ic = g.mul(i, chat);
            let c2 = g.add(fc, ic);
            let tc = g.tanh(c2);
            let h2 = g.mul(o, tc);
            (h2, c2)
        }
    }

    pub struct Lstm {
        cell: LstmCell,
    }

    impl Lstm {
        pub fn new(
            store: &mut ParamStore,
            name: &str,
            in_dim: usize,
            hidden: usize,
            rng: &mut Rng,
        ) -> Self {
            Lstm {
                cell: LstmCell::new(store, &format!("{name}.cell"), in_dim, hidden, rng),
            }
        }

        pub fn run(&self, g: &mut Graph, bind: &Binding, x: Var, reversed: bool) -> Var {
            let (b, t, _d) = g.value(x).dims3();
            let mut h = g.constant(Tensor::zeros(&[b, self.cell.hidden]));
            let mut c = g.constant(Tensor::zeros(&[b, self.cell.hidden]));
            let mut states = vec![h; t];
            let order: Vec<usize> = if reversed {
                (0..t).rev().collect()
            } else {
                (0..t).collect()
            };
            for ti in order {
                let xt = g.select_time(x, ti);
                let (h2, c2) = self.cell.step(g, bind, xt, h, c);
                h = h2;
                c = c2;
                states[ti] = h;
            }
            g.stack_time(&states)
        }
    }
}

/// How far a fused-LSTM gradient may sit from the unrolled chain's, per
/// tensor, relative to that tensor's largest chain gradient: the two sum the
/// same terms in different orders (one `Xᵀ·dZ` gemm against `T` accumulated
/// per-step gemms, one `4h`-wide `dz·Uᵀ` against four `h`-wide ones). The
/// worst seen over the edge shapes is 1.3e-5.
const LSTM_GRAD_REL: f32 = 1e-4;

/// Floor of the scale [`LSTM_GRAD_REL`] applies to: a sum whose terms cancel
/// to almost nothing still carries the absolute rounding of those terms.
const LSTM_GRAD_SCALE_FLOOR: f32 = 0.05;

fn assert_grad_close(want: &Tensor, got: &Tensor, ctx: &str) {
    assert_eq!(want.shape(), got.shape(), "{ctx}: shape");
    let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (i, (&w, &g)) in want.data().iter().zip(got.data()).enumerate() {
        assert!(
            (w - g).abs() <= LSTM_GRAD_REL * scale.max(LSTM_GRAD_SCALE_FLOOR),
            "{ctx}: gradient [{i}] {g} vs chain {w} (tensor max {scale})"
        );
    }
}

property! {
    cases = 40;

    /// The one-node LSTM against the unrolled chain at the panel-edge
    /// shapes, both directions: hidden states bit for bit;
    /// `dX` and all twelve parameter gradients within `LSTM_GRAD_REL`; the
    /// twelve tensors registered under the same names in the same order.
    fn lstm_seq_matches_unrolled_chain(
        shape in gens::usizes(0, 2 * 5 * 5 * 3 * 4),
        seed in gens::usizes(0, 1 << 16),
    ) {
        // One index over reversed × d × h × T × B, smallest shapes first.
        const WIDTHS: [usize; 5] = [1, 7, 8, 9, 32];
        let reversed = shape % 2 == 1;
        let (d, h) = (WIDTHS[shape / 2 % 5], WIDTHS[shape / 10 % 5]);
        let (t, b) = ([1, 2, 9][shape / 50 % 3], [1, 2, 7, 64][shape / 150]);
        let seed = seed as u64;
        let xs = fill(b * t * d, seed + 5);
        let readout = fill(b * t * h, seed + 6);

        let mut fused_store = ParamStore::new();
        let fused = Lstm::new(&mut fused_store, "l", d, h, &mut Rng::seed(seed));
        let mut chain_store = ParamStore::new();
        let chain = unrolled::Lstm::new(&mut chain_store, "l", d, h, &mut Rng::seed(seed));
        assert_eq!(fused_store.num_tensors(), 12);
        assert_eq!(chain_store.num_tensors(), 12);

        // Hidden states, dX, and the twelve parameter gradients.
        let run = |store: &ParamStore, is_fused: bool| {
            let mut g = Graph::new();
            let bind = store.bind_all(&mut g);
            let x = g.param(Tensor::new(xs.clone(), &[b, t, d]));
            let hs = if !is_fused {
                chain.run(&mut g, &bind, x, reversed)
            } else if reversed {
                fused.forward_reversed(&mut g, &bind, x)
            } else {
                fused.forward(&mut g, &bind, x)
            };
            let w = g.constant(Tensor::new(readout.clone(), &[b, t, h]));
            let weighted = g.mul(hs, w);
            let loss = g.sum_all(weighted);
            let grads = g.backward(loss);
            let params: Vec<Tensor> = (0..12)
                .map(|i| {
                    let p = ParamStore::param_ref_by_index(i);
                    grads.get(bind.var(p)).expect("parameter gradient").clone()
                })
                .collect();
            (
                g.value(hs).data().to_vec(),
                grads.get(x).expect("input gradient").clone(),
                params,
            )
        };
        let (fh, fdx, fparams) = run(&fused_store, true);
        let (ch, cdx, cparams) = run(&chain_store, false);
        let ctx = format!("lstm b={b} t={t} d={d} h={h} reversed={reversed}");
        assert_within_ulps(&ch, &fh, 0, &ctx);
        assert_grad_close(&cdx, &fdx, &format!("{ctx} dX"));
        for (i, (cg, fg)) in cparams.iter().zip(&fparams).enumerate() {
            let p = ParamStore::param_ref_by_index(i);
            assert_eq!(fused_store.name(p), chain_store.name(p), "{ctx}: tensor {i}");
            assert_grad_close(cg, fg, &format!("{ctx} d{}", chain_store.name(p)));
        }
    }

    /// `expand_last` against the ones-matrix product it replaced: the same
    /// values and the same gradient, bit for bit.
    fn expand_last_matches_ones_matmul(
        rows in dims1(),
        n in dims1(),
        seed in gens::usizes(0, 1 << 16),
    ) {
        // Strictly positive, like the sums and gates it broadcasts (the
        // gemm's `0 + v·1` would turn a `-0.0` into `+0.0`).
        let vs: Vec<f32> = fill(rows, seed as u64 + 7).iter().map(|v| v.abs() + 0.1).collect();
        let readout = fill(rows * n, seed as u64 + 8);
        let run = |expand: bool| {
            let mut g = Graph::new();
            let v = g.param(Tensor::new(vs.clone(), &[rows]));
            let wide = if expand {
                g.expand_last(v, n)
            } else {
                let col = g.reshape(v, &[rows, 1]);
                let ones = g.constant(Tensor::ones(&[1, n]));
                g.matmul(col, ones)
            };
            let w = g.constant(Tensor::new(readout.clone(), &[rows, n]));
            let weighted = g.mul(wide, w);
            let loss = g.sum_all(weighted);
            let grads = g.backward(loss);
            (g.value(wide).data().to_vec(), grads.get(v).unwrap().data().to_vec())
        };
        let (ey, eg) = run(true);
        let (my, mg) = run(false);
        let ctx = format!("expand_last rows={rows} n={n}");
        assert_within_ulps(&my, &ey, 0, &ctx);
        assert_within_ulps(&mg, &eg, 0, &ctx);
    }
}

/// The gemm packs operands into pool buffers with unspecified
/// contents; poisoning the pool with NaNs between two identical calls must
/// not change a single output bit (i.e. no stale lane is ever read).
#[test]
fn gemm_ignores_stale_pool_contents() {
    each_tile_build(|isa| {
        for &(m, k, n) in &[(13, 9, 21), (8, 64, 8), (1, 7, 65), (9, 1, 9), (5, 3, 31)] {
            for variant in 0..4 {
                let want = gemm_once(backend::gemm_rows, variant, m, k, n, 99);
                // Poison pool buffers of the sizes the gemm takes:
                // the A panel, the packed B and the edge-column strip.
                ssdrec_tensor::pool::recycle(vec![f32::NAN; k * 8]);
                ssdrec_tensor::pool::recycle(vec![f32::NAN; k * n]);
                ssdrec_tensor::pool::recycle(vec![f32::NAN; k * isa.width()]);
                let got = gemm_once(backend::gemm_rows, variant, m, k, n, 99);
                assert_within_ulps(
                    &want,
                    &got,
                    0,
                    &format!("stale-pool gemm {isa:?} variant={variant} m={m} k={k} n={n}"),
                );
            }
        }
    });
}

/// Every tile build the host can run against the oracle, all four
/// transpose variants: every remainder of the 8-row panel (`m` = 0..=17 and
/// 63..=65, so whole 8-row tiles and the one-row tiles of a partial panel
/// both run), and the literal `n`s around the portable and AVX-512F widths
/// together with `n mod W ∈ {0, 1, W − 1}` around one, two, four, five and
/// nine column blocks of the build's width `W`: a partial panel's row runs
/// `4·W`-lane row tiles, then `W`-lane ones, then the edge strip, and
/// `5·W + 1` takes all three at once. Prints the builds it ran: `ci.sh`
/// fails when the host's CPU flags name an instruction set this line
/// leaves out.
#[test]
fn every_tile_build_matches_the_oracle() {
    let mut covered = Vec::new();
    each_tile_build(|isa| {
        let w = isa.width();
        let mut ns = vec![0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65];
        ns.extend([
            w - 1,
            w,
            w + 1,
            2 * w - 1,
            2 * w,
            2 * w + 1,
            4 * w,
            4 * w + 1,
        ]);
        ns.extend([5 * w - 1, 5 * w + 1, 9 * w - 1, 9 * w]);
        ns.sort_unstable();
        ns.dedup();
        for m in (0..=17).chain(63..=65) {
            for k in [0, 1, 2, 9, 33] {
                for &n in &ns {
                    for variant in 0..4 {
                        let seed = m * 1000 + k * 100 + n;
                        assert_within_ulps(
                            &gemm_once(oracle::gemm_rows, variant, m, k, n, seed),
                            &gemm_once(backend::gemm_rows, variant, m, k, n, seed),
                            0,
                            &format!("gemm {isa:?} variant={variant} m={m} k={k} n={n}"),
                        );
                    }
                }
            }
        }
        covered.push(format!("{}/{}", isa.name(), isa.width()));
    });
    println!("tile builds covered: {}", covered.join(" "));
}

/// Degenerate (zero-sized) dims through the public matmul/matmul_backward
/// paths: every rank case must produce the right-shaped all-zero result
/// without panicking (regression: `chunks_mut(0)` used to panic in the
/// batched paths, and gemm's row-grain heuristic silently assumed `k ≥ 1`).
#[test]
fn matmul_zero_dims_all_rank_cases() {
    for &(m, k, n) in &[(0, 3, 4), (2, 0, 4), (2, 3, 0), (0, 0, 0)] {
        for &bs in &[0usize, 1, 3] {
            // (shape of a, shape of b) for the four rank cases.
            let cases: [(Vec<usize>, Vec<usize>); 4] = [
                (vec![m, k], vec![k, n]),
                (vec![bs, m, k], vec![bs, k, n]),
                (vec![bs, m, k], vec![k, n]),
                (vec![m, k], vec![bs, k, n]),
            ];
            for (ash, bsh) in cases {
                let a = Tensor::new(fill(ash.iter().product(), 5), &ash);
                let b = Tensor::new(fill(bsh.iter().product(), 6), &bsh);
                let out = kernels::matmul(&a, &b);
                let batched = ash.len() == 3 || bsh.len() == 3;
                let want_shape: Vec<usize> = if batched { vec![bs, m, n] } else { vec![m, n] };
                assert_eq!(out.shape(), &want_shape[..], "matmul {ash:?}×{bsh:?}");
                assert!(
                    out.data().iter().all(|&v| v == 0.0),
                    "zero-dim matmul must be all zeros"
                );
                let gout = Tensor::new(fill(out.len(), 7), out.shape());
                let [ga, gb] = kernels::matmul_backward(&a, &b, &gout, [true; 2])
                    .map(|g| g.expect("requested gradient"));
                assert_eq!(ga.shape(), &ash[..], "ga shape {ash:?}×{bsh:?}");
                assert_eq!(gb.shape(), &bsh[..], "gb shape {ash:?}×{bsh:?}");
            }
        }
    }
}

/// Zero-sized last dimension through softmax/log-softmax/LayerNorm and the
/// fused ops (regression: `chunks(0)` used to panic).
#[test]
fn row_ops_zero_last_dim() {
    let x = Tensor::zeros(&[3, 0]);
    assert_eq!(kernels::softmax_last(&x).shape(), &[3, 0]);
    assert_eq!(kernels::log_softmax_last(&x).shape(), &[3, 0]);
    let y = kernels::layer_norm(&x, &Tensor::zeros(&[0]), &Tensor::zeros(&[0]));
    assert_eq!(y.shape(), &[3, 0]);
    let f = kernels::bias_act(&x, &Tensor::zeros(&[0]), Activation::Relu);
    assert_eq!(f.shape(), &[3, 0]);
    let s = kernels::scaled_masked_softmax(&x, 0.5, None);
    assert_eq!(s.shape(), &[3, 0]);
}

/// End-to-end graph equality across tile builds: a small attention-style
/// forward/backward produces bit-identical outputs and gradients in every
/// build the host runs.
#[test]
fn graph_forward_backward_bits_equal_across_tile_builds() {
    let mut per_build: Vec<(TileIsa, Vec<f32>, Vec<f32>)> = Vec::new();
    each_tile_build(|isa| {
        let mut g = Graph::new();
        let x = g.param(Tensor::new(fill(2 * 5 * 8, 21), &[2, 5, 8]));
        let w = g.param(Tensor::new(fill(8 * 8, 22), &[8, 8]));
        let h = g.matmul(x, w);
        let attn = g.scaled_masked_softmax(h, 0.35, None);
        let out = g.matmul(attn, w);
        let ln_g = g.param(Tensor::new(fill(8, 23), &[8]));
        let ln_b = g.param(Tensor::new(fill(8, 24), &[8]));
        let normed = g.layer_norm(out, ln_g, ln_b);
        let loss = g.sum_all(normed);
        let grads = g.backward(loss);
        per_build.push((
            isa,
            g.value(normed).data().to_vec(),
            grads.get(w).unwrap().data().to_vec(),
        ));
    });
    let (first, y0, gw0) = &per_build[0];
    for (isa, y, gw) in &per_build[1..] {
        assert_within_ulps(y0, y, 0, &format!("forward, {isa:?} vs {first:?}"));
        assert_within_ulps(gw0, gw, 0, &format!("gradient, {isa:?} vs {first:?}"));
    }
}

/// The panel-edge sizes every wall below sweeps.
const EDGES: [usize; 8] = [0, 1, 7, 8, 9, 63, 64, 65];

/// A `rows×cols` operator's per-row entries the way the relation graph
/// hands them over: weight-descending (so columns arrive unsorted), every
/// third row empty, an exact-zero weight now and then, and a repeated
/// column in every fifth row, listed last with a new weight.
fn relation_rows(rows: usize, cols: usize, salt: u64) -> Vec<Vec<(usize, f32)>> {
    let mut r = Rng::seed(salt);
    (0..rows)
        .map(|i| {
            if i % 3 == 1 || cols == 0 {
                return Vec::new();
            }
            let mut row: Vec<(usize, f32)> = (0..1 + i % 12)
                .map(|e| {
                    let w = if (i + e) % 11 == 0 {
                        0.0
                    } else {
                        r.next_f32() * 2.0 - 1.0
                    };
                    (r.between(0, cols - 1), w)
                })
                .collect();
            row.sort_by(|a, b| b.1.total_cmp(&a.1));
            if i % 5 == 0 {
                row.push((row[0].0, 0.25 + i as f32));
            }
            row
        })
        .collect()
}

/// What writing the entries into a zeroed dense matrix in order leaves —
/// the last of a repeated `(i, j)` wins.
fn densified(lists: &[Vec<(usize, f32)>], rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::zeros(&[rows, cols]);
    for (i, row) in lists.iter().enumerate() {
        for &(j, w) in row {
            t.data_mut()[i * cols + j] = w;
        }
    }
    t
}

/// `spmm` against the dense product it replaces in stage 1, on the
/// oracle's gemm: the forward bit-equal to `A·X` and `dX` to `Aᵀ·dY` on the
/// densified operator, for every pair of panel-edge sizes, in every tile
/// build.
#[test]
fn spmm_matches_dense_matmul_bit_for_bit() {
    each_tile_build(|isa| {
        for (ri, &rows) in EDGES.iter().enumerate() {
            for (ci, &cols) in EDGES.iter().enumerate() {
                // Every chunk shape of `spmm_rows` in every build: one or
                // two registers (8, 16 or 32 lanes), and a padded rest.
                let d = [1, 8, 9, 17, 33, 48][(ri + ci) % 6];
                let salt = (ri * 8 + ci) as u64;
                let lists = relation_rows(rows, cols, salt);
                let a = CsrMatrix::from_rows(rows, cols, |i| lists[i].clone());
                let dense = densified(&lists, rows, cols);
                let x = filled(&[cols, d], salt + 100);
                let gout = filled(&[rows, d], salt + 200);
                let ctx = format!("spmm {rows}×{cols} · {cols}×{d} in {isa:?}");
                let (a_d, x_d, g_d) = (dense.data(), x.data(), gout.data());
                let mut want = vec![0.0f32; rows * d];
                oracle::gemm_rows(a_d, false, x_d, false, rows, cols, d, &mut want, 0, rows);
                assert_within_ulps(&want, kernels::spmm(&a, &x).data(), 0, &ctx);
                let mut want_dx = vec![0.0f32; cols * d];
                oracle::gemm_rows(a_d, true, g_d, false, cols, rows, d, &mut want_dx, 0, cols);
                let got_dx = kernels::spmm_backward(&a, &gout);
                assert_eq!(got_dx.shape(), &[cols, d], "{ctx} dX shape");
                assert_within_ulps(&want_dx, got_dx.data(), 0, &format!("{ctx} dX"));
            }
        }
    });
}

/// `lstm_seq` / `lstm_seq_backward` as they ran before the recurrence was
/// split into sequence chunks and its element passes compiled per
/// instruction set, kept as the oracle on the oracle's gemm: `gemm` is the
/// parent's (one transpose-pack, then the plain kernel over all rows, which
/// the row-partition property makes one `gemm_rows` call), pool
/// buffers are plain vectors, and every hidden unit is one scalar
/// [`math::lstm_cell`](ssdrec_tensor::math::lstm_cell) or one scalar
/// gradient chain, one sequence row at a time.
mod parent_lstm {
    use super::oracle::gemm_rows;
    use ssdrec_tensor::{math, Tensor};

    fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
        for i in 0..rows {
            for j in 0..cols {
                dst[j * rows + i] = src[i * cols + j];
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm(
        a: &[f32],
        ta: bool,
        b: &[f32],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let packed = tb.then(|| {
            let mut bp = vec![0.0f32; k * n];
            transpose_into(b, n, k, &mut bp);
            bp
        });
        let b = packed.as_deref().unwrap_or(b);
        gemm_rows(a, ta, b, false, m, k, n, out, 0, m);
    }

    fn lstm_time(step: usize, t: usize, reversed: bool) -> usize {
        if reversed {
            t - 1 - step
        } else {
            step
        }
    }

    pub fn lstm_seq(
        x: &Tensor,
        wx: &Tensor,
        u: &Tensor,
        b: &Tensor,
        reversed: bool,
    ) -> (Tensor, Vec<f32>) {
        let (bs, t, d) = x.dims3();
        let h = u.dims2().0;
        let h4 = 4 * h;
        let rows = bs * t;

        let mut saved = vec![0.0f32; rows * 6 * h];
        let mut out = Tensor::zeros(&[bs, t, h]);
        let (z, rest) = saved.split_at_mut(rows * h4);
        let (c_all, tc_all) = rest.split_at_mut(rows * h);

        gemm(x.data(), false, wx.data(), false, rows, d, h4, z);
        for row in z.chunks_mut(h4.max(1)) {
            for (zv, &bv) in row.iter_mut().zip(b.data()) {
                *zv += bv;
            }
        }

        let mut h_prev = vec![0.0f32; bs * h];
        let mut hu = vec![0.0f32; bs * h4];
        let o = out.data_mut();
        for step in 0..t {
            let ti = lstm_time(step, t, reversed);
            let t_prev = step.checked_sub(1).map(|s| lstm_time(s, t, reversed));
            if step > 0 {
                hu.fill(0.0);
                gemm(&h_prev, false, u.data(), false, bs, h, h4, &mut hu);
            }
            for bi in 0..bs {
                let row = bi * t + ti;
                let zr = &mut z[row * h4..(row + 1) * h4];
                let hur = &hu[bi * h4..(bi + 1) * h4];
                for j in 0..h {
                    let pre = [0, 1, 2, 3].map(|k| zr[k * h + j] + hur[k * h + j]);
                    let c_prev = t_prev.map_or(0.0, |tp| c_all[(bi * t + tp) * h + j]);
                    let cell = math::lstm_cell(pre, c_prev);
                    for (k, gate) in cell.gates.into_iter().enumerate() {
                        zr[k * h + j] = gate;
                    }
                    c_all[row * h + j] = cell.c;
                    tc_all[row * h + j] = cell.tc;
                    o[row * h + j] = cell.h;
                    h_prev[bi * h + j] = cell.h;
                }
            }
        }
        (out, saved)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn lstm_seq_backward(
        x: &Tensor,
        wx: &Tensor,
        u: &Tensor,
        h_out: &Tensor,
        saved: &[f32],
        gout: &Tensor,
        reversed: bool,
    ) -> [Tensor; 4] {
        let (bs, t, d) = x.dims3();
        let h = u.dims2().0;
        let h4 = 4 * h;
        let rows = bs * t;
        let (gates, rest) = saved.split_at(rows * h4);
        let (c_all, tc_all) = rest.split_at(rows * h);
        let go = gout.data();

        let mut dz = vec![0.0f32; rows * h4];
        let mut dz_t = vec![0.0f32; bs * h4];
        let mut dh_rec = vec![0.0f32; bs * h];
        let mut dc_next = vec![0.0f32; bs * h];
        let mut u_t = vec![0.0f32; h4 * h];
        transpose_into(u.data(), h, h4, &mut u_t);
        for step in (0..t).rev() {
            let ti = lstm_time(step, t, reversed);
            let t_prev = step.checked_sub(1).map(|s| lstm_time(s, t, reversed));
            for bi in 0..bs {
                let row = bi * t + ti;
                let gr = &gates[row * h4..(row + 1) * h4];
                for j in 0..h {
                    let (ig, fg, og, cand) = (gr[j], gr[h + j], gr[2 * h + j], gr[3 * h + j]);
                    let tc = tc_all[row * h + j];
                    let c_prev = t_prev.map_or(0.0, |tp| c_all[(bi * t + tp) * h + j]);
                    let dh = go[row * h + j] + dh_rec[bi * h + j];
                    let dc = dc_next[bi * h + j] + dh * og * (1.0 - tc * tc);
                    dc_next[bi * h + j] = dc * fg;
                    let dzr = [
                        dc * cand * ig * (1.0 - ig),
                        dc * c_prev * fg * (1.0 - fg),
                        dh * tc * og * (1.0 - og),
                        dc * ig * (1.0 - cand * cand),
                    ];
                    for (k, v) in dzr.into_iter().enumerate() {
                        dz[row * h4 + k * h + j] = v;
                        dz_t[bi * h4 + k * h + j] = v;
                    }
                }
            }
            if step > 0 {
                dh_rec.fill(0.0);
                gemm(&dz_t, false, &u_t, false, bs, h4, h, &mut dh_rec);
            }
        }

        let mut dx = Tensor::zeros(&[bs, t, d]);
        gemm(&dz, false, wx.data(), true, rows, h4, d, dx.data_mut());
        let mut dwx = Tensor::zeros(&[d, h4]);
        gemm(x.data(), true, &dz, false, d, rows, h4, dwx.data_mut());
        let mut fed = vec![0.0f32; rows * h];
        for step in 1..t {
            let (ti, tp) = (
                lstm_time(step, t, reversed),
                lstm_time(step - 1, t, reversed),
            );
            for bi in 0..bs {
                let (row, prev_row) = (bi * t + ti, bi * t + tp);
                fed[row * h..(row + 1) * h]
                    .copy_from_slice(&h_out.data()[prev_row * h..(prev_row + 1) * h]);
            }
        }
        let mut du = Tensor::zeros(&[h, h4]);
        gemm(&fed, true, &dz, false, h, rows, h4, du.data_mut());
        let mut db = Tensor::zeros(&[h4]);
        for row in dz.chunks(h4.max(1)) {
            for (o, &v) in db.data_mut().iter_mut().zip(row) {
                *o += v;
            }
        }
        [dx, dwx, du, db]
    }
}

/// The sequence-chunked, per-instruction-set LSTM kernels against the
/// whole-batch scalar ones they replaced: hidden states and all four
/// gradients bit for bit at `B` = 1..=9 and 63..=65 (every partial chunk,
/// whole chunks, whole chunks plus one sequence), `T ∈ {1, 2, 9}` and
/// hidden widths below, at and past one vector register of every build
/// (`h ∈ {7, 8, 17, 32}`), both directions, pooled and fresh, in every
/// tile build.
#[test]
fn lstm_seq_chunks_match_the_whole_batch_recurrence() {
    let was = ssdrec_tensor::pool::is_enabled();
    each_tile_build(|isa| {
        for (bi, b) in (1..=9).chain(63..=65).enumerate() {
            for t in [1, 2, 9] {
                let (d, h) = [(5, 8), (9, 7), (3, 17), (6, 32)][(bi + t) % 4];
                let salt = (b * 10 + t) as u64;
                let x = filled(&[b, t, d], salt);
                let wx = filled(&[d, 4 * h], salt + 1);
                let u = filled(&[h, 4 * h], salt + 2);
                let bias = filled(&[4 * h], salt + 3);
                let gout = filled(&[b, t, h], salt + 4);
                for reversed in [false, true] {
                    let (want_h, want_saved) = parent_lstm::lstm_seq(&x, &wx, &u, &bias, reversed);
                    let want_grads = parent_lstm::lstm_seq_backward(
                        &x,
                        &wx,
                        &u,
                        &want_h,
                        &want_saved,
                        &gout,
                        reversed,
                    );
                    for pooled in [true, false] {
                        ssdrec_tensor::pool::set_enabled(pooled);
                        let ctx = format!(
                            "lstm B={b} T={t} d={d} h={h} reversed={reversed} \
                         pooled={pooled} in {isa:?}"
                        );
                        let (got_h, saved) = kernels::lstm_seq(&x, &wx, &u, &bias, reversed);
                        assert_within_ulps(want_h.data(), got_h.data(), 0, &ctx);
                        let got = kernels::lstm_seq_backward(
                            &x, &wx, &u, &got_h, &saved, &gout, reversed, [true; 4],
                        );
                        for (name, (w, g)) in ["dX", "dWx", "dU", "db"]
                            .into_iter()
                            .zip(want_grads.iter().zip(got))
                        {
                            let g = g.expect("requested gradient");
                            assert_within_ulps(w.data(), g.data(), 0, &format!("{ctx} {name}"));
                        }
                        ssdrec_tensor::pool::recycle(saved);
                    }
                }
            }
        }
    });
    ssdrec_tensor::pool::set_enabled(was);
}

/// `bcast_zip` and `reduce_to_suffix` as they ran before they walked the
/// output in suffix-sized rows: one `%` per element. Kept verbatim as the
/// oracle.
mod modulo_bcast {
    use ssdrec_tensor::Tensor;

    pub fn bcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let (ash, bsh) = (a.shape(), b.shape());
        assert!(
            bsh.len() <= ash.len() && ash[ash.len() - bsh.len()..] == *bsh,
            "broadcast: {bsh:?} is not a suffix of {ash:?}"
        );
        let bn = b.len();
        let mut data = ssdrec_tensor::pool::take(a.len());
        for (i, (o, &x)) in data.iter_mut().zip(a.data()).enumerate() {
            *o = f(x, b.data()[i % bn]);
        }
        Tensor::new(data, ash)
    }

    pub fn reduce_to_suffix(a: &Tensor, suffix: &[usize]) -> Tensor {
        let bn: usize = suffix.iter().product();
        let mut out = Tensor::zeros(suffix);
        for (i, &x) in a.data().iter().enumerate() {
            out.data_mut()[i % bn] += x;
        }
        out
    }
}

/// The row-walking broadcasts against the `%` loops: every suffix length
/// in {1, 2, 7, 8, 197} — as `[n]`, and split over two axes where it can
/// be — under leading sizes {0, 1, 3, 64}, for an add, a product and a
/// non-commutative map, and the reduction back; bit for bit. The values
/// include `±0` and a `−0` suffix so a changed addition order or a dropped
/// term would show.
#[test]
fn broadcasts_match_the_modulo_loops() {
    type Map = fn(f32, f32) -> f32;
    let maps: [(&str, Map); 3] = [
        ("add", |x, y| x + y),
        ("mul", |x, y| x * y),
        ("x - 3y", |x, y| x - 3.0 * y),
    ];
    for bn in [1, 2, 7, 8, 197] {
        let mut suffixes = vec![vec![bn]];
        if bn % 2 == 0 {
            suffixes.push(vec![2, bn / 2]);
        }
        if bn == 1 {
            suffixes.push(vec![1, 1]);
        }
        for suffix in suffixes {
            for lead in [0, 1, 3, 64] {
                let mut ash = vec![lead];
                ash.extend(&suffix);
                let mut av = fill(lead * bn, (bn * 100 + lead) as u64);
                for (i, v) in av.iter_mut().enumerate() {
                    match i % 9 {
                        0 => *v = 0.0,
                        4 => *v = -0.0,
                        _ => {}
                    }
                }
                let a = Tensor::new(av, &ash);
                let mut bv = fill(bn, bn as u64 + 7);
                bv[0] = -0.0;
                let b = Tensor::new(bv, &suffix);
                let ctx = format!("{ash:?} by {suffix:?}");
                for (name, f) in maps {
                    assert_within_ulps(
                        modulo_bcast::bcast_zip(&a, &b, f).data(),
                        kernels::bcast_zip(&a, &b, f).data(),
                        0,
                        &format!("bcast_zip {name} {ctx}"),
                    );
                }
                let want = modulo_bcast::reduce_to_suffix(&a, &suffix);
                let got = kernels::reduce_to_suffix(&a, &suffix);
                assert_eq!(got.shape(), &suffix[..], "reduce_to_suffix shape {ctx}");
                assert_within_ulps(
                    want.data(),
                    got.data(),
                    0,
                    &format!("reduce_to_suffix {ctx}"),
                );
            }
        }
    }
}
