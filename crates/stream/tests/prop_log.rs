//! Hostile-input wall for the interaction-log reader, in the style of
//! `ssdrec-models`' `prop_sstc`: every strict prefix of a valid log either
//! opens with its torn tail truncated or is refused with a typed
//! `LogError`; 1–6 flipped bytes never panic anywhere in `open` → `replay`
//! → `materialize`; a CRC-valid record outside the header's catalog is
//! refused at its offset by both readers; and an unflipped log replays to
//! exactly the events appended.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_stream::{
    crc32, materialize, replay, LogError, LogHeader, StreamLog, HEADER_LEN, RECORD_LEN,
};
use ssdrec_testkit::{gens, property, Gen, Rng};

/// A unique scratch path per call.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("prop-log");
    fs::create_dir_all(&dir).expect("create scratch dir");
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}-{n}.sslg"))
}

/// A catalog of 1–6 users and 1–9 items and 0–20 events inside it.
fn arb_log() -> Gen<(LogHeader, Vec<(usize, usize)>)> {
    Gen::from_fn(|rng| {
        let header = LogHeader {
            num_users: rng.between(1, 6),
            num_items: rng.between(1, 9),
        };
        let events = (0..rng.between(0, 20))
            .map(|_| (rng.below(header.num_users), 1 + rng.below(header.num_items)))
            .collect();
        (header, events)
    })
}

/// The bytes of a log holding `events` under `header`.
fn written(header: LogHeader, events: &[(usize, usize)]) -> Vec<u8> {
    let path = scratch("written");
    let mut log = StreamLog::create(&path, header).expect("create");
    log.append_all(events.iter().copied()).expect("append");
    log.sync().expect("sync");
    drop(log);
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_file(path);
    bytes
}

/// `bytes` as a log file at a fresh path.
fn on_disk(bytes: &[u8]) -> PathBuf {
    let path = scratch("load");
    fs::write(&path, bytes).unwrap();
    path
}

/// Every event in the log at `path` as `(user, item)`.
fn replayed(path: &Path, end: u64) -> Result<Vec<(usize, usize)>, LogError> {
    Ok(replay(path, HEADER_LEN, end)?
        .iter()
        .map(|e| (e.user, e.item))
        .collect())
}

/// One CRC-valid record for `(user, item)`, whatever the catalog.
fn forged(user: u64, item: u64) -> Vec<u8> {
    let mut rec = 16u32.to_le_bytes().to_vec();
    rec.extend(user.to_le_bytes());
    rec.extend(item.to_le_bytes());
    let crc = crc32(&rec[4..]);
    rec.extend(crc.to_le_bytes());
    assert_eq!(rec.len() as u64, RECORD_LEN);
    rec
}

property! {
    cases = 48;

    /// An unflipped log opens clean and replays to exactly the events
    /// appended, in order, and `materialize` groups them per user.
    fn unflipped_log_replays_the_events_appended(log in arb_log()) {
        let (header, events) = log;
        let path = on_disk(&written(header, &events));
        let (log, report) = StreamLog::open(&path).expect("a valid log opens");
        assert_eq!((report.records, report.truncated_bytes), (events.len() as u64, 0));
        assert_eq!(log.header(), header);
        let got = replayed(&path, log.end()).expect("a valid log replays");
        assert_eq!(got, events);
        let ds = materialize(header, &replay(&path, HEADER_LEN, log.end()).unwrap());
        for (u, seq) in ds.sequences.iter().enumerate() {
            let want: Vec<usize> = events.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            assert_eq!(seq, &want, "user {u}");
        }
        let _ = fs::remove_file(path);
    }

    /// Every strict prefix either opens with its torn tail truncated — the
    /// whole records before the cut survive and replay — or, shorter than
    /// the header, is refused with a typed error.
    fn every_strict_prefix_opens_truncated_or_is_refused(log in arb_log()) {
        let (header, events) = log;
        let bytes = written(header, &events);
        for cut in 0..bytes.len() {
            let path = on_disk(&bytes[..cut]);
            match StreamLog::open(&path) {
                Ok((log, report)) => {
                    let whole = (cut as u64 - HEADER_LEN) / RECORD_LEN;
                    assert_eq!(report.records, whole, "prefix {cut}");
                    assert_eq!(report.end, HEADER_LEN + whole * RECORD_LEN, "prefix {cut}");
                    assert_eq!(report.truncated_bytes, cut as u64 - report.end, "prefix {cut}");
                    assert_eq!(fs::metadata(&path).unwrap().len(), log.end(), "prefix {cut}");
                    let got = replayed(&path, log.end()).expect("a recovered prefix replays");
                    assert_eq!(got, events[..whole as usize], "prefix {cut}");
                }
                Err(LogError::BadMagic) => assert!((cut as u64) < HEADER_LEN, "prefix {cut}"),
                Err(e) => panic!("prefix {cut}/{}: unexpected {e:?}", bytes.len()),
            }
            let _ = fs::remove_file(path);
        }
    }

    /// 1–6 flipped bytes anywhere never panic in `open` → `replay` →
    /// `materialize`: each step either refuses the log with a typed error or
    /// hands on IDs inside the catalog.
    fn byte_flips_never_panic(
        log in arb_log(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        let (header, events) = log;
        let mut bytes = written(header, &events);
        let mut rng = Rng::seed(salt);
        for _ in 0..flips {
            let pos = rng.below(bytes.len());
            bytes[pos] ^= 1 + rng.below(255) as u8;
        }
        let path = on_disk(&bytes);
        if let Ok((log, _)) = StreamLog::open(&path) {
            let events = replay(&path, HEADER_LEN, log.end()).expect("an opened log replays");
            let ds = materialize(log.header(), &events);
            assert_eq!(ds.sequences.iter().map(Vec::len).sum::<usize>(), events.len());
        }
        let _ = fs::remove_file(path);
        // The read-only reader, on the file as flipped (`open` may have
        // truncated it), at every record boundary it may be asked for.
        let path = on_disk(&bytes);
        for to in (HEADER_LEN..=bytes.len() as u64).step_by(RECORD_LEN as usize) {
            if let Ok(events) = replay(&path, HEADER_LEN, to) {
                if let Ok(h) = ssdrec_stream::log::read_header(&path) {
                    materialize(h, &events);
                }
            }
        }
        let _ = fs::remove_file(path);
    }
}

/// A CRC-valid record outside the catalog — a user at or past `num_users`,
/// item 0 (the pad slot) or an item past `num_items` — is refused by `open`
/// and by `replay` with its offset, wherever it sits in the log; before the
/// check it reached `materialize` and indexed past the end of its per-user
/// table.
#[test]
fn forged_out_of_catalog_records_are_refused() {
    let header = LogHeader {
        num_users: 4,
        num_items: 5,
    };
    let valid = written(header, &[(0, 1), (3, 5), (2, 3)]);
    let n = header.num_users as u64;
    let m = header.num_items as u64;
    for (user, item) in [
        (n, 1),
        (1_000_000, 1),
        (u64::MAX, 1),
        (0, 0),
        (1, m + 1),
        (1, u64::MAX),
    ] {
        for at in [0, 1, 3] {
            let cut = (HEADER_LEN + at * RECORD_LEN) as usize;
            let mut bytes = valid[..cut].to_vec();
            bytes.extend(forged(user, item));
            bytes.extend(&valid[cut..]);
            let path = on_disk(&bytes);
            let refused = |e: LogError| match e {
                LogError::Corrupt { offset } => {
                    assert_eq!(offset, cut as u64);
                    assert!(e.to_string().contains(&format!("offset {cut}")), "{e}");
                }
                other => {
                    panic!("({user}, {item}) at record {at}: expected Corrupt, got {other:?}")
                }
            };
            refused(replay(&path, HEADER_LEN, bytes.len() as u64).expect_err("replay refuses"));
            match StreamLog::open(&path) {
                Err(e) => refused(e),
                Ok((_, report)) => panic!("({user}, {item}) at record {at}: opened {report:?}"),
            }
            // The records before it still replay.
            let before = replay(&path, HEADER_LEN, cut as u64).expect("the records before");
            assert_eq!(before.len() as u64, at);
            let _ = fs::remove_file(path);
        }
    }
}
