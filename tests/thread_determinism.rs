//! The determinism suite: every parallelized hot path must be
//! **bit-identical** at 1, 2 and 7 threads (7 is deliberately odd and
//! co-prime with every chunk count, so uneven chunk-to-thread assignments
//! are exercised). This is the enforcement arm of the determinism contract
//! in `ssdrec_runtime` — parallelism may only trade wall-clock time, never
//! a single bit of output.
//!
//! The matrix also has a **tile build** dimension: every thread-count sweep
//! runs once in every instruction-set build of the kernels the host can run
//! (`TileIsa::supported`: portable, AVX2, AVX-512F), and the whole matrix
//! must collapse to one output — including trained losses, HR/NDCG bits and
//! checkpoint bytes. These are the builds real hosts pick, so a result does
//! not depend on which CPU trained it.
//!
//! Each test reconfigures the shared global pool and the active tile build,
//! so the suite serialises itself behind one mutex and restores a 1-thread
//! pool on the way out.

mod common;

use std::sync::Mutex;

use common::{fingerprint, sports_world, ssdrec_on, train_config, Fingerprint};
use ssdrec::data::SyntheticConfig;
use ssdrec::denoise::Mgsd;
use ssdrec::graph::{build_graph, GraphConfig, MultiRelationGraph};
use ssdrec::metrics::{full_rank, par_top_k, rank_rows, top_k};
use ssdrec::models::{evaluate, train, BackboneKind, ContrastiveSeqRec, RecModel, SeqRec};
use ssdrec::serve::{Engine, EngineConfig, ServerStats};
use ssdrec::tensor::backend::{with_tile_isa, TileIsa};
use ssdrec::tensor::kernels::{matmul, matmul_backward, scatter_rows, spmm, spmm_backward};
use ssdrec::tensor::{pool, CsrMatrix, Graph, Tensor};

/// Serialises pool reconfiguration across `#[test]` threads.
static POOL_LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Run `f` once in every tile build the host can run, narrowest first.
fn each_tile_build(mut f: impl FnMut(TileIsa)) {
    for isa in TileIsa::supported() {
        with_tile_isa(isa, || f(isa));
    }
}

/// Run `f` once per (tile build, thread count) cell; every cell must give
/// the same output. Returns the one output.
fn assert_bits_stable<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut want: Option<T> = None;
    each_tile_build(|isa| {
        for &t in &THREAD_COUNTS {
            ssdrec::runtime::set_threads(t);
            let got = f();
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "output diverged at {t} threads ({isa:?} build)"),
            }
        }
    });
    ssdrec::runtime::set_threads(1);
    want.expect("the portable build")
}

/// A deterministic dense fill that produces "awkward" floats (varied signs
/// and magnitudes, some exact zeros to exercise the gemm skip path).
fn fill(n: usize, salt: u64) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 17 == 0 {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 4.0 - 2.0
            }
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Both operand gradients of a matmul.
fn both_grads(a: &Tensor, b: &Tensor, gout: &Tensor) -> [Tensor; 2] {
    matmul_backward(a, b, gout, [true; 2]).map(|g| g.expect("requested gradient"))
}

#[test]
fn gemm_is_bit_identical_across_thread_counts() {
    // Big enough to clear the 2-D gemm's parallel gate (2 Mi flops) in
    // every case below. 194 is `train_ssdrec`'s V+1 (row blocks of 8 and a
    // 2-row tail), 384 a whole number of blocks.
    let (k, n) = (64, 176);
    for m in [96, 194, 384] {
        let a = Tensor::new(fill(m * k, 1), &[m, k]);
        let b = Tensor::new(fill(k * n, 2), &[k, n]);
        let gout = Tensor::new(fill(m * n, 3), &[m, n]);
        assert_bits_stable(|| {
            // The forward is the (false, false) variant; the backward pair
            // a transposed-and-packed `b` and the (true, false) variant.
            let out = matmul(&a, &b);
            let [ga, gb] = both_grads(&a, &b, &gout);
            (bits(&out), bits(&ga), bits(&gb))
        });
    }
}

/// The batched cases at two shapes, each over the parallel gates of the
/// per-batch products (1 Mi flops) and of the rhs-broadcast case's one 2-D
/// gemm (2 Mi); the second's rhs-broadcast product is `B·m` = 63 rows —
/// seven row blocks of 8, the last a partial tile.
#[test]
fn batched_matmul_is_bit_identical_across_thread_counts() {
    for (bs, m, k, n) in [(64, 12, 48, 32), (7, 9, 128, 136)] {
        let a3 = Tensor::new(fill(bs * m * k, 4), &[bs, m, k]);
        let b3 = Tensor::new(fill(bs * k * n, 5), &[bs, k, n]);
        let b2 = Tensor::new(fill(k * n, 6), &[k, n]);
        let gout = Tensor::new(fill(bs * m * n, 7), &[bs, m, n]);
        assert_bits_stable(|| {
            let out33 = matmul(&a3, &b3);
            let out32 = matmul(&a3, &b2);
            let [ga33, gb33] = both_grads(&a3, &b3, &gout);
            // ThreeTwo backward: gb is one chain over all B·m rows — the
            // order-sensitive case.
            let [ga32, gb32] = both_grads(&a3, &b2, &gout);
            (
                bits(&out33),
                bits(&out32),
                bits(&ga33),
                bits(&gb33),
                bits(&ga32),
                bits(&gb32),
            )
        });
    }
}

/// The fused LSTM node, forward and in-node BPTT, at shapes whose packed
/// gemms and sequence-chunked recurrence all cross the parallel threshold —
/// eight whole 8-sequence chunks, and the same plus a partial last chunk —
/// pooled and fresh allocation alike (its saved activations and scratch
/// come from the pool with stale contents). Its gate and BPTT passes are
/// compiled per instruction set, which the matrix's tile-build axis covers.
#[test]
fn lstm_seq_is_bit_identical_across_thread_counts() {
    let (t, d, h) = (9, 32, 32);
    for b in [64, 65] {
        lstm_bits_stable(b, t, d, h);
    }
}

fn lstm_bits_stable(b: usize, t: usize, d: usize, h: usize) {
    assert_bits_stable(|| {
        let was = pool::is_enabled();
        let run = |pooled: bool| {
            pool::set_enabled(pooled);
            let mut g = Graph::new();
            let x = g.param(Tensor::new(fill(b * t * d, 41), &[b, t, d]));
            let wx = g.param(Tensor::new(fill(d * 4 * h, 42), &[d, 4 * h]));
            let u = g.param(Tensor::new(fill(h * 4 * h, 43), &[h, 4 * h]));
            let bias = g.param(Tensor::new(fill(4 * h, 44), &[4 * h]));
            let mut out = Vec::new();
            for reversed in [false, true] {
                let hs = g.lstm_seq(x, wx, u, bias, reversed);
                let sq = g.mul(hs, hs);
                let loss = g.sum_all(sq);
                let grads = g.backward(loss);
                out.push(bits(g.value(hs)));
                out.extend([x, wx, u, bias].map(|v| bits(grads.get(v).unwrap())));
            }
            out
        };
        let (pooled, fresh) = (run(true), run(false));
        pool::set_enabled(was);
        assert_eq!(pooled, fresh, "pooled and fresh LSTM diverged");
        pooled
    });
}

/// Stage 1's sparse product at `train_ssdrec`'s U×U shape (384 rows, 32
/// weight-descending neighbours each, so rows arrive unsorted): the
/// row-parallel forward and the transposed-operator `dX`.
#[test]
fn spmm_is_bit_identical_across_thread_counts() {
    let (n, k, d) = (384, 32, 32);
    let weights = fill(n * k, 45);
    let a = CsrMatrix::from_rows(n, n, |i| {
        let mut row: Vec<(usize, f32)> = (0..k)
            .map(|e| ((i * 131 + e * e * 17 + e) % n, weights[i * k + e]))
            .collect();
        row.sort_by(|p, q| q.1.total_cmp(&p.1));
        row
    });
    let x = Tensor::new(fill(n * d, 46), &[n, d]);
    let gout = Tensor::new(fill(n * d, 47), &[n, d]);
    assert_bits_stable(|| (bits(&spmm(&a, &x)), bits(&spmm_backward(&a, &gout))));
}

#[test]
fn embedding_backward_is_bit_identical_across_thread_counts() {
    // Repeating indices make the scatter-add order observable: f32 addition
    // is non-associative, so any reordering would flip low bits. (The
    // scatter runs inline at every thread count; this keeps it that way.)
    let (v, d, n) = (160, 32, 900);
    let indices: Vec<usize> = (0..n).map(|i| (i * 37 + i * i * 11) % v).collect();
    let gout = Tensor::new(fill(n * d, 8), &[n, d]);
    assert_bits_stable(|| bits(&scatter_rows(&[v, d], &indices, &gout)));
}

#[test]
fn full_rank_eval_is_bit_identical_across_thread_counts() {
    // Synthetic wide score matrix straight through the metrics helpers…
    let (rows, width) = (70, 512);
    let flat = fill(rows * width, 9);
    let targets: Vec<usize> = (0..rows).map(|r| 1 + (r * 13) % (width - 1)).collect();
    let seq: Vec<usize> = targets
        .iter()
        .enumerate()
        .map(|(r, &t)| full_rank(&flat[r * width..(r + 1) * width], t))
        .collect();
    assert_bits_stable(|| {
        let ranks = rank_rows(&flat, width, &targets);
        assert_eq!(ranks, seq, "parallel ranks must equal the sequential map");
        ranks
    });

    // …and through a real model evaluation end to end.
    let model = SeqRec::new(BackboneKind::SasRec, 40, 8, 12, 11);
    let examples: Vec<ssdrec::data::Example> = (0..12)
        .map(|u| ssdrec::data::Example {
            user: u,
            seq: (1..=8).map(|i| 1 + (u * 7 + i * 3) % 40).collect(),
            target: 1 + (u * 5) % 40,
            noise: None,
        })
        .collect();
    assert_bits_stable(|| {
        let acc = evaluate(&model, &examples, 4);
        let report = acc.report();
        (
            acc.ranks().to_vec(),
            report.hr10.to_bits(),
            report.ndcg10.to_bits(),
        )
    });
}

#[test]
fn top_k_selection_is_exact_at_any_thread_count() {
    // A catalogue above the par_top_k threshold with heavy score ties.
    let scores: Vec<f32> = fill(10_000, 10)
        .into_iter()
        .map(|x| (x * 8.0).round() / 8.0)
        .collect();
    let want = top_k(&scores, 25);
    assert_bits_stable(|| {
        let got = par_top_k(&scores, 25);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
        got.iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect::<Vec<_>>()
    });
}

/// FNV-1a over every neighbour id, weight bit and popularity flag.
fn graph_hash(g: &MultiRelationGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for csr in [
        &g.user_item,
        &g.item_user,
        &g.trans_out,
        &g.trans_in,
        &g.incompatible,
        &g.similar,
        &g.dissimilar,
    ] {
        for i in 0..csr.num_nodes() {
            mix(csr.degree(i) as u64);
            for &(j, w) in csr.neighbors(i) {
                mix(j as u64);
                mix(w.to_bits() as u64);
            }
        }
    }
    for &p in &g.item_popular {
        mix(p as u64);
    }
    h
}

#[test]
fn graph_build_is_bit_identical_across_thread_counts() {
    // Enough users and items for dozens of row blocks per relation, under
    // the default configuration and under `data-scale`'s caps.
    let ds = SyntheticConfig::beauty()
        .scaled(2.0)
        .with_seed(3)
        .generate();
    let capped = GraphConfig {
        max_item_users: 16,
        max_context_items: 64,
        ..GraphConfig::default()
    };
    assert_bits_stable(|| {
        [GraphConfig::default(), capped.clone()].map(|cfg| graph_hash(&build_graph(&ds, &cfg)))
    });
}

/// The world every training test here runs on.
fn tiny_world() -> ssdrec::core::Prepared {
    sports_world(0.03, 7)
}

/// Train `model` for two epochs on the tiny sports world and fingerprint
/// everything observable — final-loss bits, HR@10/NDCG@10 bits, checkpoint
/// bytes. For SSDRec two epochs cross the augmentation warm-up, so the full
/// three-stage loss path is in the fingerprint.
fn model_fingerprint<M: RecModel>(mut model: M, tag: &str) -> Fingerprint {
    let report = train(&mut model, &tiny_world().split, &train_config(2, 7));
    fingerprint(&report, &model, tag)
}

/// The tentpole contract of the step-scoped arena, extended with the tile
/// build dimension: pooled buffers carry stale contents, so a pooled
/// training run must still produce the exact bits — losses, metrics and
/// checkpoint bytes — of a fresh-allocation run, at 1 thread and at 4, in
/// every tile build; and every cell of that matrix must agree.
#[test]
fn pooled_and_fresh_training_are_bit_identical() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let was = pool::is_enabled();
    let train_fingerprint = |tag: &str| model_fingerprint(ssdrec_on(&tiny_world(), 7), tag);
    let mut want: Option<Fingerprint> = None;
    each_tile_build(|isa| {
        let build = isa.name();
        for &t in &[1usize, 4] {
            ssdrec::runtime::set_threads(t);
            pool::set_enabled(true);
            let pooled = train_fingerprint(&format!("pooled_{build}_t{t}"));
            pool::set_enabled(false);
            let fresh = train_fingerprint(&format!("fresh_{build}_t{t}"));
            assert_eq!(
                pooled.0, fresh.0,
                "epoch loss bits diverged between pooled and fresh at {t} threads ({build})"
            );
            assert_eq!(
                (pooled.1, pooled.2),
                (fresh.1, fresh.2),
                "HR@10/NDCG@10 bits diverged between pooled and fresh at {t} threads ({build})"
            );
            assert_eq!(
                pooled.3, fresh.3,
                "checkpoint bytes diverged between pooled and fresh at {t} threads ({build})"
            );
            match &want {
                None => want = Some(pooled),
                Some(w) => {
                    assert_eq!(
                        &pooled.0, &w.0,
                        "loss bits diverged across the matrix ({build}, {t} threads)"
                    );
                    assert_eq!(
                        (pooled.1, pooled.2),
                        (w.1, w.2),
                        "HR@10/NDCG@10 bits diverged across the matrix ({build}, {t} threads)"
                    );
                    assert_eq!(
                        pooled.3, w.3,
                        "checkpoint bytes diverged across the matrix ({build}, {t} threads)"
                    );
                }
            }
        }
    });
    pool::set_enabled(was);
    ssdrec::runtime::set_threads(1);
}

/// The two newest loss paths — the contrastive joint CE + InfoNCE loss
/// (whose per-example view RNG must be immune to batch sharding) and the
/// multi-granularity weakly supervised loss — run through the full matrix:
/// tile build × {1, 2, 7} threads × pooled-vs-fresh allocation, every cell
/// with the same fingerprint, checkpoint bytes included.
#[test]
fn new_loss_paths_are_bit_identical_across_matrix() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let was = pool::is_enabled();
    let ds = tiny_world().dataset;
    let (num_users, num_items) = (ds.num_users, ds.num_items);

    for scenario in ["cl", "mgsd"] {
        let run = |tag: &str| -> Fingerprint {
            if scenario == "cl" {
                model_fingerprint(
                    ContrastiveSeqRec::new(BackboneKind::SasRec, num_items, 8, 50, 7),
                    tag,
                )
            } else {
                model_fingerprint(Mgsd::new(num_users, num_items, 8, 50, 7), tag)
            }
        };
        let mut want: Option<Fingerprint> = None;
        each_tile_build(|isa| {
            let build = isa.name();
            for &t in &THREAD_COUNTS {
                ssdrec::runtime::set_threads(t);
                pool::set_enabled(true);
                let pooled = run(&format!("{scenario}_pooled_{build}_t{t}"));
                pool::set_enabled(false);
                let fresh = run(&format!("{scenario}_fresh_{build}_t{t}"));
                assert_eq!(
                    pooled, fresh,
                    "{scenario}: pooled and fresh runs diverged at {t} threads ({build})"
                );
                match &want {
                    None => want = Some(pooled),
                    Some(w) => assert_eq!(
                        &pooled, w,
                        "{scenario}: output diverged at {t} threads ({build})"
                    ),
                }
            }
        });
    }
    pool::set_enabled(was);
    ssdrec::runtime::set_threads(1);
}

/// Resume-equivalence at multiple thread counts: training 4 epochs straight
/// must be bit-identical — loss, metrics and checkpoint bytes — to a
/// 4-epoch run killed after epoch 2 and `--resume`d in a fresh model.
/// `tests/chaos.rs` pins the fault-injection side of this contract; this
/// test pins the *thread* dimension.
#[test]
fn resumed_training_is_bit_identical_across_thread_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prep = common::sports_world(0.03, 7);
    for t in [1usize, 4] {
        ssdrec::runtime::set_threads(t);
        common::assert_kill_and_resume_is_bit_identical(&format!("t{t}"), &prep, 32, |p| {
            common::ssdrec_on(p, 7)
        });
    }
    ssdrec::runtime::set_threads(1);
}

#[test]
fn served_request_is_bit_identical_across_thread_counts() {
    assert_bits_stable(|| {
        let model = SeqRec::new(BackboneKind::SasRec, 30, 8, 10, 42);
        let reference = SeqRec::new(BackboneKind::SasRec, 30, 8, 10, 42);
        let engine = Engine::new(
            model.into(),
            EngineConfig {
                max_len: 10,
                ..EngineConfig::default()
            },
            std::sync::Arc::new(ServerStats::new()),
        );
        let seq = vec![3, 9, 4, 1];
        let served = engine.recommend(0, &seq, 8).expect("serve");
        let offline = reference.recommend(0, &seq, 8);
        assert_eq!(served.items.len(), offline.len());
        for (s, o) in served.items.iter().zip(&offline) {
            assert_eq!(s.0, o.0, "served item diverged from offline");
            assert_eq!(s.1.to_bits(), o.1.to_bits(), "served score bits");
        }
        engine.shutdown();
        served
            .items
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect::<Vec<_>>()
    });
}
