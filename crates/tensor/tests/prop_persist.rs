//! Hostile-input wall for the `.ssdt` checkpoint loader, on the
//! conformance harness (`ssdrec_testkit::conformance`): an unflipped file
//! loads identical bits, every strict prefix is rejected with a typed
//! `io::Error`, 1–6 flipped bytes never panic, and every count, length and
//! dim forged to `u32::MAX` is refused before anything is allocated from
//! it.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_base::bytes::Cursor;
use ssdrec_tensor::{load_params, save_params, ParamStore, Rng, Tensor};
use ssdrec_testkit::conformance::{self, Field, Format};
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

/// The `.ssdt` format: a store's architecture and the seed of its values.
struct Ssdt;

/// The bytes `store` saves to.
fn saved(store: &ParamStore) -> Vec<u8> {
    let path = scratch("saved");
    save_params(store, &path).expect("save");
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(path);
    bytes
}

impl Format for Ssdt {
    type Value = (Spec, u64);
    type Error = io::Error;

    fn encode(&self, (spec, seed): &(Spec, u64)) -> Vec<u8> {
        saved(&store_of(spec, *seed))
    }

    /// Load into a store of the same architecture (values from another
    /// seed) and save what it holds.
    fn decode(&self, (spec, _): &(Spec, u64), bytes: &[u8]) -> io::Result<Vec<u8>> {
        let path = scratch("load");
        fs::write(&path, bytes).unwrap();
        let mut store = store_of(spec, 999);
        let res = load_params(&mut store, &path);
        let _ = fs::remove_file(path);
        res.map(|()| saved(&store))
    }

    /// A malformed file, or one that ends early.
    fn typed(&self, e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        )
    }

    /// The tensor count, then per record its name length, its rank and,
    /// unless the tensor is empty (a dim of it sizes nothing), its dims.
    fn fields(&self, bytes: &[u8]) -> Vec<Field> {
        let u32_at = |at, says| Field { at, width: 4, says };
        let mut fields = vec![u32_at(8, &["tensor count", "overruns"][..])];
        let mut c = Cursor::new(bytes);
        c.bytes(8, String::new).unwrap();
        for _ in 0..c.u32().unwrap() {
            fields.push(u32_at(bytes.len() - c.left(), &["name is", "overruns"]));
            c.name().unwrap();
            fields.push(u32_at(bytes.len() - c.left(), &["dims", "overruns"]));
            let dims: Vec<(usize, usize)> = (0..c.u32().unwrap())
                .map(|_| (bytes.len() - c.left(), c.u32().unwrap() as usize))
                .collect();
            let len = dims.iter().map(|d| d.1).product();
            if len > 0 {
                fields.extend(
                    dims.iter()
                        .map(|&(at, _)| u32_at(at, &["shape", "overruns"])),
                );
            }
            c.f32s(len).unwrap();
        }
        fields
    }
}

property! {
    cases = 48;

    /// An unflipped file loads the saved bits exactly.
    fn unflipped_file_loads_identical_bits(spec in arb_spec(), seed in gens::u64s()) {
        conformance::round_trip(&Ssdt, &(spec, seed));
    }

    /// Every strict prefix of a valid file is rejected with a typed error.
    fn every_strict_prefix_is_rejected(spec in arb_spec(), seed in gens::u64s()) {
        conformance::strict_prefixes(&Ssdt, &(spec, seed));
    }

    /// 1–6 flipped bytes anywhere never panic: the load either fails with a
    /// typed error or (a flip inside the values) succeeds.
    fn byte_flips_never_panic(
        spec in arb_spec(),
        seed in gens::u64s(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        conformance::byte_flips(&Ssdt, &(spec, seed), flips, salt);
    }
}

/// Every length field flipped to its largest value is refused before the
/// loader allocates from it — the tensor count, each name's byte count,
/// each rank and each dim (which would ask for 4 to 48 GiB).
#[test]
fn corrupt_length_fields_are_refused_before_allocation() {
    let spec: Spec = vec![("w".into(), vec![2, 3]), ("b".into(), vec![3])];
    conformance::forged_counts(&Ssdt, &(spec, 1));
}
