//! Hostile-input wall for the interaction-log reader, on the conformance
//! harness (`ssdrec_testkit::conformance`): every strict prefix of a valid
//! log either opens with its torn tail truncated or is refused with a
//! typed `LogError`; 1–6 flipped bytes never panic anywhere in `open` →
//! `replay` → `materialize`; a header catalog or record length forged to
//! its largest value is refused; a CRC-valid record outside the header's
//! catalog is refused at its offset by both readers; and an unflipped log
//! replays to exactly the events appended.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ssdrec_base::bytes::{crc32, Put};
use ssdrec_stream::{materialize, replay, LogError, LogHeader, StreamLog, HEADER_LEN, RECORD_LEN};
use ssdrec_testkit::conformance::{self, Field, Format};
use ssdrec_testkit::{gens, property, scratch_path, Gen};

/// A unique scratch path per call.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    scratch_path(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/prop-log"),
        &format!("{tag}-{n}.sslg"),
    )
}

/// A catalog and the events appended under it.
type Log = (LogHeader, Vec<(usize, usize)>);

/// A catalog of 1–6 users and 1–9 items and 0–20 events inside it.
fn arb_log() -> Gen<Log> {
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
    let mut rec = Vec::new();
    rec.put_u32(16);
    rec.put_u64(user);
    rec.put_u64(item);
    let crc = crc32(&rec[4..]);
    rec.put_u32(crc);
    assert_eq!(rec.len() as u64, RECORD_LEN);
    rec
}

/// The `.sslg` format.
struct Sslg;

impl Format for Sslg {
    type Value = Log;
    type Error = LogError;

    fn encode(&self, (header, events): &Log) -> Vec<u8> {
        written(*header, events)
    }

    /// `open` (which truncates a torn tail), `replay` and `materialize`,
    /// then the log of the events replayed under the header read.
    fn decode(&self, _: &Log, bytes: &[u8]) -> Result<Vec<u8>, LogError> {
        let path = on_disk(bytes);
        let res = StreamLog::open(&path).and_then(|(log, report)| {
            assert_eq!(report.end, log.end());
            assert_eq!(report.truncated_bytes, bytes.len() as u64 - log.end());
            assert_eq!(fs::metadata(&path).unwrap().len(), log.end());
            let events = replayed(&path, log.end())?;
            let ds = materialize(log.header(), &replay(&path, HEADER_LEN, log.end())?);
            assert_eq!(
                ds.sequences.iter().map(Vec::len).sum::<usize>(),
                events.len()
            );
            Ok(written(log.header(), &events))
        });
        let _ = fs::remove_file(path);
        res
    }

    /// A prefix shorter than the header is refused as a bad magic; a longer
    /// one opens with its torn tail truncated and keeps the whole records
    /// before the cut.
    fn prefix_ok(&self, bytes: &[u8], cut: usize, got: &Result<Vec<u8>, LogError>) -> bool {
        let header = HEADER_LEN as usize;
        match got {
            Ok(kept) => {
                let whole = header + (cut - header) / RECORD_LEN as usize * RECORD_LEN as usize;
                cut >= header && kept[..] == bytes[..whole]
            }
            Err(LogError::BadMagic) => cut < header,
            Err(_) => false,
        }
    }

    /// The header's user and item counts, and each record's length field.
    fn fields(&self, bytes: &[u8]) -> Vec<Field> {
        let says = &["exceeds the bound"];
        let mut fields = vec![
            Field {
                at: 8,
                width: 8,
                says,
            },
            Field {
                at: 16,
                width: 8,
                says,
            },
        ];
        let records = (HEADER_LEN as usize..bytes.len()).step_by(RECORD_LEN as usize);
        fields.extend(records.map(|at| Field {
            at,
            width: 4,
            says: &["corrupt log record"],
        }));
        fields
    }

    /// The header CRC (a record's CRC covers its payload, not its length).
    fn reseal(&self, _: &[u8], forged: &mut [u8]) {
        let crc = crc32(&forged[..24]);
        forged[24..28].copy_from_slice(&crc.to_le_bytes());
    }
}

property! {
    cases = 48;

    /// An unflipped log opens clean and replays to exactly the events
    /// appended, in order, and `materialize` groups them per user.
    fn unflipped_log_replays_the_events_appended(log in arb_log()) {
        conformance::round_trip(&Sslg, &log);
        let (header, events) = log;
        let path = on_disk(&written(header, &events));
        let ds = materialize(header, &replay(&path, HEADER_LEN, fs::metadata(&path).unwrap().len()).unwrap());
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
        conformance::strict_prefixes(&Sslg, &log);
    }

    /// 1–6 flipped bytes anywhere never panic in `open` → `replay` →
    /// `materialize`: each step either refuses the log with a typed error or
    /// hands on IDs inside the catalog.
    fn byte_flips_never_panic(
        log in arb_log(),
        flips in gens::usizes(1, 7),
        salt in gens::u64s(),
    ) {
        let bytes = conformance::byte_flips(&Sslg, &log, flips, salt);
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

/// A header catalog forged to `u64::MAX` users or items (CRC recomputed)
/// is refused before `materialize` sizes a per-user table by it, and a
/// record length forged to `u32::MAX` is corruption at its offset.
#[test]
fn forged_catalog_and_lengths_are_refused() {
    let header = LogHeader {
        num_users: 4,
        num_items: 5,
    };
    conformance::forged_counts(&Sslg, &(header, vec![(0, 1), (3, 5)]));
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
