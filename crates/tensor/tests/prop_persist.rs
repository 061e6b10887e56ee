//! Hostile-input wall for the `.ssdt` checkpoint loader, in the style of
//! the columnar suite: every strict prefix of a valid file is rejected with
//! a typed `io::Error`, 1–6 flipped bytes never panic (a corrupt length
//! field is refused before anything is allocated from it), and an
//! unflipped file loads identical bits.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_tensor::{load_params, save_params, ParamStore, Rng, Tensor};
use ssdrec_testkit::{gens, property, scratch_path, Gen};

/// A unique scratch path per call.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    scratch_path(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/prop-persist"),
        &format!("{tag}-{n}.ssdt"),
    )
}

/// A store's architecture: 1–4 tensors, names of 1–12 bytes (some
/// non-ASCII), 0–3 dims of 0–5 each.
type Spec = Vec<(String, Vec<usize>)>;

fn arb_spec() -> Gen<Spec> {
    Gen::from_fn(|rng| {
        (0..rng.between(1, 4))
            .map(|i| {
                let name: String = (0..rng.between(1, 12))
                    .map(|_| ['a', 'z', '.', '_', 'é'][rng.between(0, 4)])
                    .chain(char::from_digit(i as u32, 10))
                    .collect();
                let shape = (0..rng.between(0, 3)).map(|_| rng.between(0, 5)).collect();
                (name, shape)
            })
            .collect()
    })
}

/// A store built from `spec`, its values drawn from `seed`.
fn store_of(spec: &Spec, seed: u64) -> ParamStore {
    let mut rng = Rng::seed(seed);
    let mut store = ParamStore::new();
    for (name, shape) in spec {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        store.add(name.clone(), Tensor::new(data, shape));
    }
    store
}

fn bits(store: &ParamStore) -> Vec<Vec<u32>> {
    store
        .snapshot()
        .iter()
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
        .collect()
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

/// A saved checkpoint of `spec` and its bytes.
fn saved(spec: &Spec, seed: u64) -> (ParamStore, Vec<u8>) {
    let store = store_of(spec, seed);
    let path = scratch("saved");
    save_params(&store, &path).expect("save");
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(path);
    (store, bytes)
}

/// Load `bytes` into a store of `spec` (values from another seed).
fn load(spec: &Spec, bytes: &[u8]) -> (ParamStore, io::Result<()>) {
    let path = scratch("load");
    fs::write(&path, bytes).unwrap();
    let mut store = store_of(spec, 999);
    let res = load_params(&mut store, &path);
    let _ = fs::remove_file(path);
    (store, res)
}

property! {
    cases = 48;

    /// An unflipped file loads the saved bits exactly.
    fn unflipped_file_loads_identical_bits(spec in arb_spec(), seed in gens::u64s()) {
        let (want, bytes) = saved(&spec, seed);
        let (got, res) = load(&spec, &bytes);
        res.expect("a valid checkpoint loads");
        assert_eq!(bits(&got), bits(&want));
    }

    /// Every strict prefix of a valid file is rejected with a typed error.
    fn every_strict_prefix_is_rejected(spec in arb_spec(), seed in gens::u64s()) {
        let (_, bytes) = saved(&spec, seed);
        for cut in 0..bytes.len() {
            match load(&spec, &bytes[..cut]).1 {
                Err(e) => assert_typed(&e, &format!("prefix {cut}/{}", bytes.len())),
                Ok(()) => panic!("prefix {cut}/{} bytes must be rejected", bytes.len()),
            }
        }
    }

    /// 1–6 flipped bytes anywhere never panic: the load either fails with a
    /// typed error or (a flip inside the values) succeeds.
    fn byte_flips_never_panic(
        spec in arb_spec(),
        seed in gens::u64s(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        let (_, mut bytes) = saved(&spec, seed);
        let mut rng = Rng::seed(salt);
        for _ in 0..flips {
            let pos = rng.below(bytes.len());
            bytes[pos] ^= 1 + rng.below(255) as u8;
        }
        if let Err(e) = load(&spec, &bytes).1 {
            assert_typed(&e, &format!("{flips} flips"));
        }
    }
}

/// A length field flipped to its largest value is refused before the
/// loader allocates from it — the name's byte count and the shape's rank
/// (which would ask for 4 GiB and 32 GiB).
#[test]
fn corrupt_length_fields_are_refused_before_allocation() {
    let spec: Spec = vec![("w".into(), vec![2, 3]), ("b".into(), vec![3])];
    let (_, bytes) = saved(&spec, 1);
    // Header: magic, version, count; tensor 0: name_len, "w", ndim.
    let name_len_at = 12;
    let ndim_at = name_len_at + 4 + 1;
    for (at, what) in [(name_len_at, "name is"), (ndim_at, "dims")] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = load(&spec, &bad)
            .1
            .expect_err("a huge length must be refused");
        assert_typed(&e, what);
        assert!(e.to_string().contains(what), "{what}: {e}");
    }
}
