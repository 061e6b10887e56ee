//! Property suite for the columnar `.ssdc` pipeline: byte-exact round
//! trips, windowed-vs-in-RAM batch bit-identity (across compute thread
//! counts), and typed rejection of truncated, corrupted, forged and
//! fault-interrupted files — with no torn output ever left on disk. The
//! hostile-input properties run on the conformance harness
//! (`ssdrec_testkit::conformance`).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_base::bytes::{crc32, Cursor};
use ssdrec_testkit::conformance::{self, Field, Format};
use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};
use ssdrec_testkit::{gens, property, scratch_path, Gen};

use ssdrec_data::{
    encode_dataset, make_batches, plan_leave_one_out, BatchIter, ColumnarReader, ColumnarWriter,
    Dataset, FormatError, SequenceStore, SyntheticConfig, TruncatedStore, MAX_CATALOG,
};

/// A unique scratch path per call (property cases run many files through
/// the same test thread; reused names would race the atomic rename).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    scratch_path(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/prop-columnar"),
        &format!("{tag}-{n}.ssdc"),
    )
}

/// Random dataset: 2–8 users, 5–24 items, sequences of length 0–16, noise
/// labels on half the draws. Built directly from the case RNG (closure
/// generators do not shrink; the counter-example is the drawn dataset).
fn arb_dataset() -> Gen<Dataset> {
    Gen::from_fn(|rng| {
        let users = rng.between(2, 8);
        let items = rng.between(5, 24);
        let with_noise = rng.between(0, 1) == 1;
        let sequences: Vec<Vec<usize>> = (0..users)
            .map(|_| {
                let len = rng.between(0, 16);
                (0..len).map(|_| rng.between(1, items)).collect()
            })
            .collect();
        let noise_labels = with_noise.then(|| {
            sequences
                .iter()
                .map(|s| s.iter().map(|_| rng.between(0, 4) == 0).collect())
                .collect()
        });
        Dataset {
            name: "prop".into(),
            num_users: users,
            num_items: items,
            sequences,
            noise_labels,
        }
    })
}

/// The `.ssdc` format.
struct Ssdc;

/// The bytes `ds` encodes to.
fn encoded(ds: &Dataset) -> Vec<u8> {
    let path = scratch("encoded");
    encode_dataset(ds, &path).expect("encode");
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(path);
    bytes
}

/// The footer's section table: each entry's offset in the file, and its
/// section's offset and length.
fn sections(bytes: &[u8]) -> Vec<(usize, usize, usize)> {
    let count = Cursor::new(&bytes[bytes.len() - 12..]).u32().unwrap() as usize;
    let table = bytes.len() - 12 - 24 * count;
    let mut c = Cursor::new(&bytes[table..]);
    (0..count)
        .map(|i| {
            let (_tag, off, len, _crc) = (c.u32(), c.u64().unwrap(), c.u64().unwrap(), c.u32());
            (table + 24 * i, off as usize, len as usize)
        })
        .collect()
}

impl Format for Ssdc {
    type Value = Dataset;
    type Error = FormatError;

    fn encode(&self, ds: &Dataset) -> Vec<u8> {
        encoded(ds)
    }

    fn decode(&self, _: &Dataset, bytes: &[u8]) -> Result<Vec<u8>, FormatError> {
        let path = scratch("decode");
        fs::write(&path, bytes).unwrap();
        let res = ColumnarReader::open(&path).map(|r| encoded(&r.to_dataset()));
        let _ = fs::remove_file(path);
        res
    }

    /// The footer count, each section's length, and META's name length,
    /// user count, item count and interaction count.
    fn fields(&self, bytes: &[u8]) -> Vec<Field> {
        let table = sections(bytes);
        let mut fields = vec![Field {
            at: bytes.len() - 12,
            width: 4,
            says: &["footer count", "overruns"],
        }];
        for &(entry, _, _) in &table {
            let says = &["malformed columnar footer"];
            fields.push(Field {
                at: entry + 12,
                width: 8,
                says,
            });
        }
        let &(_, meta, _) = table
            .iter()
            .find(|s| &bytes[s.0..s.0 + 4] == b"META")
            .unwrap();
        let name_len = Cursor::new(&bytes[meta..]).u32().unwrap() as usize;
        fields.push(Field {
            at: meta,
            width: 4,
            says: &["name is", "overruns"],
        });
        let users = meta + 4 + name_len;
        fields.push(Field {
            at: users,
            width: 8,
            says: &["user count", "overruns"],
        });
        fields.push(Field {
            at: users + 8,
            width: 8,
            says: &[
                "catalogue of 18446744073709551615 items",
                "exceeds the bound",
            ],
        });
        let says = &["interaction count"];
        fields.push(Field {
            at: users + 16,
            width: 8,
            says,
        });
        fields
    }

    /// Every section's CRC, then the footer's, laid out as in `original`.
    fn reseal(&self, original: &[u8], forged: &mut [u8]) {
        let table = sections(original);
        for &(entry, off, len) in &table {
            let crc = crc32(&forged[off..off + len]);
            forged[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        }
        let end = forged.len() - 8;
        let crc = crc32(&forged[table[0].0..end]);
        forged[end..end + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

property! {
    cases = 48;

    /// Encode → decode recovers the dataset exactly, and re-encoding the
    /// decoded dataset reproduces the file byte for byte (the format has
    /// one canonical encoding per dataset).
    fn round_trip_is_byte_exact(ds in arb_dataset()) {
        let p1 = scratch("rt1");
        let p2 = scratch("rt2");
        encode_dataset(&ds, &p1).expect("encode");
        let back = ColumnarReader::open(&p1).expect("decode").to_dataset();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.num_users, ds.num_users);
        assert_eq!(back.num_items, ds.num_items);
        assert_eq!(back.sequences, ds.sequences);
        assert_eq!(back.noise_labels, ds.noise_labels);
        encode_dataset(&back, &p2).expect("re-encode");
        assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap(), "re-encode must be byte-identical");
        let _ = fs::remove_file(p1);
        let _ = fs::remove_file(p2);
    }

    /// Batches drawn through the windowed reader are bit-identical to
    /// batches built from the fully materialized dataset, for the same
    /// `(batch_size, seed)` — and stay so at 1, 2 and 7 compute threads
    /// (batching is deterministic planning; threads only trade wall-clock).
    fn windowed_batches_match_ram_batches(ds in arb_dataset()) {
        let path = scratch("batch");
        encode_dataset(&ds, &path).expect("encode");
        let reader = ColumnarReader::open(&path).expect("open");

        let ram = TruncatedStore::new(&ds, 10);
        let win = TruncatedStore::new(&reader, 10);
        let plan_ram = plan_leave_one_out(&ram, 3, 3);
        let plan_win = plan_leave_one_out(&win, 3, 3);
        assert_eq!(plan_ram.train, plan_win.train);
        assert_eq!(plan_ram.valid, plan_win.valid);
        assert_eq!(plan_ram.test, plan_win.test);

        let split = plan_ram.materialize(&ram);
        let before = ssdrec_runtime::threads();
        for threads in [1usize, 2, 7] {
            ssdrec_runtime::set_threads(threads);
            for seed in [0u64, 9] {
                let eager = make_batches(&split.train, 3, seed);
                let lazy: Vec<_> = BatchIter::new(&win, &plan_win.train, 3, seed).collect();
                assert_eq!(eager.len(), lazy.len());
                for (a, b) in eager.iter().zip(&lazy) {
                    assert_eq!(a.users, b.users);
                    assert_eq!(a.items, b.items);
                    assert_eq!(a.seq_len, b.seq_len);
                    assert_eq!(a.targets, b.targets);
                    assert_eq!(a.noise, b.noise);
                }
            }
        }
        ssdrec_runtime::set_threads(before);
        let _ = fs::remove_file(path);
    }

    /// Every strict prefix of a valid file is rejected with a typed
    /// [`FormatError`] — never a panic, never a silently short dataset.
    fn truncated_files_are_rejected(ds in arb_dataset()) {
        conformance::strict_prefixes(&Ssdc, &ds);
    }

    /// 1–6 flipped bytes anywhere never panic the reader.
    fn byte_flips_never_panic(
        ds in arb_dataset(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        conformance::byte_flips(&Ssdc, &ds, flips, salt);
    }

    /// Flipping any single byte of a valid file is rejected with a typed
    /// [`FormatError`] (every section and the footer are CRC-guarded).
    fn corrupt_files_are_rejected(ds in arb_dataset()) {
        let path = scratch("corrupt");
        encode_dataset(&ds, &path).expect("encode");
        let bytes = fs::read(&path).unwrap();
        let step = 5.max(bytes.len() / 16);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xA5;
            let p = scratch("corrupt-flip");
            fs::write(&p, &bad).unwrap();
            match ColumnarReader::open(&p) {
                Err(_) => {}
                Ok(_) => panic!("byte flip at {pos}/{} must be rejected", bytes.len()),
            }
            let _ = fs::remove_file(p);
        }
        let _ = fs::remove_file(path);
    }
}

/// The footer count, every section length and META's counts forged to
/// their largest value, CRCs recomputed, are refused before the reader
/// allocates from them: a user count takes at least a LENS byte per user,
/// an item count is at most `MAX_CATALOG`, and a footer count takes a
/// table entry per section.
#[test]
fn forged_counts_are_refused_before_allocation() {
    let ds = SyntheticConfig::beauty().scaled(0.05).generate();
    conformance::forged_counts(&Ssdc, &ds);
}

/// The writer takes a catalogue of `MAX_CATALOG` items, which the reader
/// opens, and refuses one item more, naming the count, before it creates
/// any file.
#[test]
fn the_writer_holds_the_catalogue_bound() {
    let path = scratch("bound");
    let w = ColumnarWriter::create(&path, "bound", MAX_CATALOG, false, false).expect("create");
    w.finish().expect("finish");
    assert_eq!(
        ColumnarReader::open(&path).expect("open").num_items(),
        MAX_CATALOG
    );
    let _ = fs::remove_file(&path);
    let too_many = MAX_CATALOG + 1;
    match ColumnarWriter::create(&path, "bound", too_many, false, false) {
        Err(e @ FormatError::CatalogTooLarge(_)) => {
            assert!(e.to_string().contains(&format!("{too_many} items")), "{e}");
        }
        other => panic!("expected CatalogTooLarge, got {:?}", other.err()),
    }
    assert!(!path.exists() && !path.with_extension("ssdc.tmp").exists());
}

/// The streaming generator writes the byte-identical file to encoding the
/// same profile generated in RAM — `gen-data` at scale is exactly the
/// in-RAM pipeline, minus the RAM.
#[test]
fn generate_to_matches_encode_of_generate() {
    for cfg in [
        SyntheticConfig::beauty().scaled(0.2),
        SyntheticConfig::ml100k().scaled(0.3).with_seed(11),
    ] {
        let p_stream = scratch("gen-stream");
        let p_ram = scratch("gen-ram");
        cfg.generate_to(&p_stream).expect("generate_to");
        encode_dataset(&cfg.generate(), &p_ram).expect("encode");
        assert_eq!(
            fs::read(&p_stream).unwrap(),
            fs::read(&p_ram).unwrap(),
            "streamed and in-RAM encodings must be byte-identical"
        );
        let _ = fs::remove_file(p_stream);
        let _ = fs::remove_file(p_ram);
    }
}

/// An injected `write.data` fault aborts the write with a typed I/O error
/// and leaves *nothing* behind: no destination file, no `.tmp` — a crashed
/// writer can never be mistaken for a finished dataset.
#[test]
fn faulted_write_leaves_no_torn_output() {
    let ds = SyntheticConfig::beauty().scaled(0.1).generate();
    let path = scratch("fault");
    let tmp = path.with_extension("ssdc.tmp");
    let armed = FaultPlan::new().error("write.data", 1).arm();
    match encode_dataset(&ds, &path) {
        Err(FormatError::Io(_)) => {}
        other => panic!("expected Io error from the armed fault, got {other:?}"),
    }
    assert_fired_exactly("write.data", 1);
    drop(armed);
    assert!(!path.exists(), "no destination file may appear");
    assert!(!tmp.exists(), "the temp file must be cleaned up");
    // The same write succeeds once the fault is disarmed.
    encode_dataset(&ds, &path).expect("clean write");
    assert!(path.exists());
    let _ = fs::remove_file(path);
}

/// Windowed reads are position-independent: random-access `read_seq` calls
/// return the same sequences as a fresh sequential pass, even when the
/// access pattern hops across window boundaries.
#[test]
fn windowed_random_access_matches_sequential() {
    let cfg = SyntheticConfig::yelp().scaled(0.5);
    let path = scratch("window");
    cfg.generate_to(&path).expect("generate_to");
    let reader = ColumnarReader::open(&path).expect("open");
    let ds = ColumnarReader::open(&path).expect("decode").to_dataset();
    let mut buf = Vec::new();
    let n = SequenceStore::num_users(&reader);
    assert_eq!(n, ds.num_users);
    // Stride pattern deliberately jumps back and forth.
    for step in [1usize, 7, n.saturating_sub(1).max(1)] {
        let mut u = 0usize;
        for _ in 0..n {
            reader.read_seq(u, &mut buf);
            assert_eq!(buf, ds.sequences[u], "user {u}");
            u = (u + step) % n;
        }
    }
    let _ = fs::remove_file(path);
}
