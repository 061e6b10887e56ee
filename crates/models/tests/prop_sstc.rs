//! Hostile-input wall for the `.sstc` training-state loader, in the style
//! of `ssdrec-tensor`'s `prop_persist`: every strict prefix of a valid file
//! is rejected with a typed `io::Error`, 1–6 flipped bytes never panic or
//! abort (a corrupt count, length or shape is refused before anything is
//! allocated from it), `u32::MAX` counts and lengths are refused, and an
//! unflipped file loads to identical bits.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_metrics::MetricReport;
use ssdrec_models::checkpoint::{load_train_state, save_train_state, TrainState};
use ssdrec_tensor::Tensor;
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

/// Load a state from `bytes`.
fn load(bytes: &[u8]) -> io::Result<TrainState> {
    let path = scratch("load");
    fs::write(&path, bytes).unwrap();
    let res = load_train_state(&path);
    let _ = fs::remove_file(path);
    res
}

/// The error kinds the loader reports: a malformed file, or one that ends
/// early.
fn assert_typed(e: &io::Error, ctx: &str) {
    assert!(
        matches!(
            e.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        ),
        "{ctx}: untyped error {e:?}"
    );
}

property! {
    cases = 48;

    /// An unflipped file loads to identical bits: saving what was loaded
    /// gives the same bytes back.
    fn unflipped_file_loads_identical_bits(st in arb_state()) {
        let bytes = saved(&st);
        let loaded = load(&bytes).expect("a valid training state loads");
        assert_eq!(saved(&loaded), bytes);
    }

    /// Every strict prefix of a valid file is rejected with a typed error.
    fn every_strict_prefix_is_rejected(st in arb_state()) {
        let bytes = saved(&st);
        for cut in 0..bytes.len() {
            match load(&bytes[..cut]) {
                Err(e) => assert_typed(&e, &format!("prefix {cut}/{}", bytes.len())),
                Ok(_) => panic!("prefix {cut}/{} bytes must be rejected", bytes.len()),
            }
        }
    }

    /// 1–6 flipped bytes anywhere never panic or abort: the load either
    /// fails with a typed error or (a flip inside the values) succeeds.
    fn byte_flips_never_panic(
        st in arb_state(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        let mut bytes = saved(&st);
        let mut rng = Rng::seed(salt);
        for _ in 0..flips {
            let pos = rng.below(bytes.len());
            bytes[pos] ^= 1 + rng.below(255) as u8;
        }
        if let Err(e) = load(&bytes) {
            assert_typed(&e, &format!("{flips} flips"));
        }
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
    let bytes = saved(&st);
    // The fixed header is 132 bytes; then the model state (count + 2
    // words), one parameter ("w", rank 2, three 2×3 tensors) and one
    // snapshot tensor.
    let n_state = 132;
    let n_params = n_state + 4 + 2 * 8;
    let name_len = n_params + 4;
    let rank = name_len + 4 + 1;
    let dim = rank + 4;
    let n_snap = dim + 2 * 4 + 3 * 6 * 4;
    let snap_rank = n_snap + 4;
    assert_eq!(bytes.len(), snap_rank + 4 + 2 * 4 + 6 * 4, "layout");
    for (at, what) in [
        (n_state, "model state"),
        (n_params, "parameter count"),
        (name_len, "name length"),
        (rank, "rank"),
        (dim, "shape"),
        (n_snap, "snapshot count"),
        (snap_rank, "rank"),
    ] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = load(&bad).expect_err("a huge count must be refused");
        assert_typed(&e, what);
        assert!(
            e.to_string().contains(what) && e.to_string().contains("overruns"),
            "{what}: {e}"
        );
    }
}
