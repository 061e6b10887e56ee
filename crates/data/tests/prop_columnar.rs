//! Property suite for the columnar `.ssdc` pipeline: byte-exact round
//! trips, windowed-vs-in-RAM batch bit-identity (across compute thread
//! counts), and typed rejection of truncated, corrupted, and
//! fault-interrupted files — with no torn output ever left on disk.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};
use ssdrec_testkit::{property, Gen};

use ssdrec_data::{
    encode_dataset, make_batches, plan_leave_one_out, BatchIter, ColumnarReader, Dataset,
    FormatError, SequenceStore, SyntheticConfig, TruncatedStore,
};

/// A unique scratch path per call (property cases run many files through
/// the same test thread; reused names would race the atomic rename).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("prop-columnar");
    fs::create_dir_all(&dir).expect("create scratch dir");
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}-{n}.ssdc"))
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
        let path = scratch("trunc");
        encode_dataset(&ds, &path).expect("encode");
        let bytes = fs::read(&path).unwrap();
        // Every boundary region plus a spread of interior cut points.
        let cuts: Vec<usize> = (0..bytes.len()).step_by(7.max(bytes.len() / 24)).chain([
            0, 1, 15, 16, bytes.len().saturating_sub(1),
        ]).filter(|&c| c < bytes.len()).collect();
        for cut in cuts {
            let p = scratch("trunc-cut");
            fs::write(&p, &bytes[..cut]).unwrap();
            match ColumnarReader::open(&p) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut}/{} bytes must be rejected", bytes.len()),
            }
            let _ = fs::remove_file(p);
        }
        let _ = fs::remove_file(path);
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
