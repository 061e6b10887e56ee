//! Hostile-input wall for the `.sstc` training-state loader, on the
//! conformance harness (`ssdrec_testkit::conformance`): an unflipped file
//! loads to identical bits, every strict prefix is rejected with a typed
//! `io::Error`, 1–6 flipped bytes never panic or abort, and every count,
//! length and shape forged to `u32::MAX` is refused before anything is
//! allocated from it.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_base::bytes::Cursor;
use ssdrec_metrics::MetricReport;
use ssdrec_models::checkpoint::{load_train_state, save_train_state, TrainState};
use ssdrec_tensor::Tensor;
use ssdrec_testkit::conformance::{self, Field, Format};
use ssdrec_testkit::{gens, property, scratch_path, Gen, Rng};

/// A unique scratch path per call.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    scratch_path(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/prop-sstc"),
        &format!("{tag}-{n}.sstc"),
    )
}

/// A tensor of 0–3 dims of 0–4 each, its values any bit pattern.
fn arb_tensor(rng: &mut Rng) -> Tensor {
    let shape: Vec<usize> = (0..rng.between(0, 3)).map(|_| rng.between(0, 4)).collect();
    let n = shape.iter().product();
    let data = (0..n)
        .map(|_| f32::from_bits(rng.next_u64() as u32))
        .collect();
    Tensor::new(data, &shape)
}

/// A training state: 0–3 model-state words, 0–3 parameters named by 1–8
/// bytes (some non-ASCII), 0–3 snapshot tensors, and every scalar any bit
/// pattern.
fn arb_state() -> Gen<TrainState> {
    Gen::from_fn(|rng| {
        let f64_bits = |rng: &mut Rng| f64::from_bits(rng.next_u64());
        let params = (0..rng.between(0, 3))
            .map(|i| {
                let name: String = (0..rng.between(1, 8))
                    .map(|_| ['a', 'z', '.', '_', 'é'][rng.between(0, 4)])
                    .chain(char::from_digit(i as u32, 10))
                    .collect();
                let value = arb_tensor(rng);
                let moment = |rng: &mut Rng| {
                    let data = value.data().iter().map(|_| rng.next_f32()).collect();
                    Tensor::new(data, value.shape())
                };
                let (m, v) = (moment(rng), moment(rng));
                (name, value, m, v)
            })
            .collect();
        TrainState {
            next_epoch: rng.next_u64() as u32,
            since_best: rng.next_u64() as u32,
            adam_steps: rng.next_u64(),
            rng_state: [(); 4].map(|_| rng.next_u64()),
            best_hr20: f64_bits(rng),
            total_train_secs: f64_bits(rng),
            final_loss: f32::from_bits(rng.next_u64() as u32),
            best_valid: MetricReport {
                hr5: f64_bits(rng),
                hr10: f64_bits(rng),
                hr20: f64_bits(rng),
                ndcg5: f64_bits(rng),
                ndcg10: f64_bits(rng),
                ndcg20: f64_bits(rng),
                mrr20: f64_bits(rng),
            },
            model_state: (0..rng.between(0, 3)).map(|_| rng.next_u64()).collect(),
            params,
            best_snapshot: (0..rng.between(0, 3)).map(|_| arb_tensor(rng)).collect(),
        }
    })
}

/// The bytes `st` saves to.
fn saved(st: &TrainState) -> Vec<u8> {
    let path = scratch("saved");
    save_train_state(st, &path).expect("save");
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(path);
    bytes
}

/// The `.sstc` format.
struct Sstc;

impl Format for Sstc {
    type Value = TrainState;
    type Error = io::Error;

    fn encode(&self, st: &TrainState) -> Vec<u8> {
        saved(st)
    }

    fn decode(&self, _: &TrainState, bytes: &[u8]) -> io::Result<Vec<u8>> {
        let path = scratch("load");
        fs::write(&path, bytes).unwrap();
        let res = load_train_state(&path);
        let _ = fs::remove_file(path);
        res.map(|st| saved(&st))
    }

    /// A malformed file, or one that ends early.
    fn typed(&self, e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        )
    }

    /// The model-state, parameter and snapshot counts, each parameter's
    /// name length, and every rank and (in a tensor that is not empty) dim.
    fn fields(&self, bytes: &[u8]) -> Vec<Field> {
        let u32_at = |at, says| Field { at, width: 4, says };
        let tensors = |c: &mut Cursor, fields: &mut Vec<Field>, copies| {
            fields.push(u32_at(bytes.len() - c.left(), &["rank", "overruns"]));
            let dims: Vec<(usize, usize)> = (0..c.u32().unwrap())
                .map(|_| (bytes.len() - c.left(), c.u32().unwrap() as usize))
                .collect();
            let len: usize = dims.iter().map(|d| d.1).product();
            if len > 0 {
                fields.extend(
                    dims.iter()
                        .map(|&(at, _)| u32_at(at, &["shape", "overruns"])),
                );
            }
            c.f32s(copies * len).unwrap();
        };
        // The fixed header is 132 bytes.
        let mut c = Cursor::new(bytes);
        c.bytes(132, String::new).unwrap();
        let mut fields = vec![u32_at(
            bytes.len() - c.left(),
            &["model state", "overruns"][..],
        )];
        let n_state = c.u32().unwrap() as usize;
        c.bytes(8 * n_state, String::new).unwrap();
        fields.push(u32_at(
            bytes.len() - c.left(),
            &["parameter count", "overruns"],
        ));
        let n_params = c.u32().unwrap();
        for _ in 0..n_params {
            fields.push(u32_at(bytes.len() - c.left(), &["name length", "overruns"]));
            c.name().unwrap();
            tensors(&mut c, &mut fields, 3);
        }
        fields.push(u32_at(
            bytes.len() - c.left(),
            &["snapshot count", "overruns"],
        ));
        for _ in 0..c.u32().unwrap() {
            tensors(&mut c, &mut fields, 1);
        }
        assert_eq!(c.left(), 0, "layout");
        fields
    }
}

property! {
    cases = 48;

    /// An unflipped file loads to identical bits: saving what was loaded
    /// gives the same bytes back.
    fn unflipped_file_loads_identical_bits(st in arb_state()) {
        conformance::round_trip(&Sstc, &st);
    }

    /// Every strict prefix of a valid file is rejected with a typed error.
    fn every_strict_prefix_is_rejected(st in arb_state()) {
        conformance::strict_prefixes(&Sstc, &st);
    }

    /// 1–6 flipped bytes anywhere never panic or abort: the load either
    /// fails with a typed error or (a flip inside the values) succeeds.
    fn byte_flips_never_panic(
        st in arb_state(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        conformance::byte_flips(&Sstc, &st, flips, salt);
    }
}

/// Every count and length field set to `u32::MAX` is refused before the
/// loader allocates from it: the model-state, parameter and snapshot
/// counts (which would ask for up to 32 GiB), a name's byte count, a rank,
/// and a dim (whose shape product would ask for 48 GiB three times over).
#[test]
fn u32_max_counts_and_lengths_are_refused() {
    let w = || Tensor::new((0..6).map(|i| i as f32).collect(), &[2, 3]);
    let st = TrainState {
        next_epoch: 1,
        since_best: 0,
        adam_steps: 4,
        rng_state: [1, 2, 3, 4],
        best_hr20: 0.5,
        total_train_secs: 1.0,
        final_loss: 0.25,
        best_valid: MetricReport::default(),
        model_state: vec![7, 8],
        params: vec![("w".into(), w(), w(), w())],
        best_snapshot: vec![w()],
    };
    assert_eq!(Sstc.fields(&saved(&st)).len(), 10, "layout");
    conformance::forged_counts(&Sstc, &st);
}
