//! Log-format edge cases: empty log, torn tail recovered by truncation,
//! CRC corruption rejected with a typed error, and replay-from-offset
//! byte-identity with full-replay-then-skip.

use std::fs;
use std::path::PathBuf;

use ssdrec_stream::{replay, LogError, LogHeader, StreamLog, HEADER_LEN, RECORD_LEN};
use ssdrec_testkit::scratch_path;

fn scratch(tag: &str) -> PathBuf {
    scratch_path(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/log-format"),
        &format!("{tag}.sslg"),
    )
}

const CATALOG: LogHeader = LogHeader {
    num_users: 8,
    num_items: 100,
};

fn filled(tag: &str, events: &[(usize, usize)]) -> PathBuf {
    let path = scratch(tag);
    let mut log = StreamLog::create(&path, CATALOG).expect("create");
    log.append_all(events.iter().copied()).expect("append");
    log.sync().expect("sync");
    path
}

#[test]
fn empty_log_opens_with_zero_records() {
    let path = scratch("empty");
    drop(StreamLog::create(&path, CATALOG).expect("create"));
    let (log, report) = StreamLog::open(&path).expect("open");
    assert_eq!(report.records, 0);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(log.end(), HEADER_LEN);
    assert_eq!(log.header(), CATALOG);
    assert_eq!(
        replay(&path, HEADER_LEN, HEADER_LEN).expect("replay"),
        vec![]
    );
}

#[test]
fn append_extends_and_reopen_sees_everything() {
    let path = filled("roundtrip", &[(0, 1), (1, 2), (7, 100)]);
    let (log, report) = StreamLog::open(&path).expect("reopen");
    assert_eq!(report.records, 3);
    assert_eq!(log.end(), HEADER_LEN + 3 * RECORD_LEN);
    let events = replay(&path, HEADER_LEN, log.end()).expect("replay");
    let pairs: Vec<(usize, usize)> = events.iter().map(|e| (e.user, e.item)).collect();
    assert_eq!(pairs, vec![(0, 1), (1, 2), (7, 100)]);
}

#[test]
fn out_of_catalog_events_are_rejected() {
    let path = scratch("catalog");
    let mut log = StreamLog::create(&path, CATALOG).expect("create");
    // User past the catalog, item 0 (the pad slot), item past the catalog.
    for (u, i) in [(8, 1), (0, 0), (0, 101)] {
        match log.append(u, i) {
            Err(LogError::OutOfCatalog { user, item, .. }) => assert_eq!((user, item), (u, i)),
            other => panic!("expected OutOfCatalog for ({u}, {i}), got {other:?}"),
        }
    }
    // Nothing was written.
    assert_eq!(log.records(), 0);
}

#[test]
fn torn_tail_is_truncated_on_open() {
    let path = filled("torn", &[(0, 1), (1, 2)]);
    // Simulate a crash mid-append: half a record of garbage-free prefix.
    let mut bytes = fs::read(&path).expect("read");
    let full = bytes.clone();
    bytes.extend_from_slice(&full[HEADER_LEN as usize..HEADER_LEN as usize + 10]);
    fs::write(&path, &bytes).expect("write torn");

    let (log, report) = StreamLog::open(&path).expect("open recovers");
    assert_eq!(report.records, 2);
    assert_eq!(report.truncated_bytes, 10);
    assert_eq!(log.end(), HEADER_LEN + 2 * RECORD_LEN);
    // The file itself was truncated back to the valid prefix.
    assert_eq!(fs::metadata(&path).expect("meta").len(), log.end());
    // And appends go to the recovered end, readable afterwards.
    let mut log = log;
    log.append(3, 4).expect("append after recovery");
    let events = replay(&path, HEADER_LEN, log.end()).expect("replay");
    assert_eq!(events.len(), 3);
    assert_eq!((events[2].user, events[2].item), (3, 4));
}

#[test]
fn mid_log_crc_corruption_is_a_typed_error() {
    let path = filled("corrupt", &[(0, 1), (1, 2), (2, 3)]);
    // Flip one payload byte of the SECOND record: it is complete (not a torn
    // tail), so this must be rejected, not silently truncated.
    let mut bytes = fs::read(&path).expect("read");
    let second = (HEADER_LEN + RECORD_LEN) as usize;
    bytes[second + 5] ^= 0xFF;
    fs::write(&path, &bytes).expect("write corrupt");

    match StreamLog::open(&path) {
        Err(LogError::Corrupt { offset }) => assert_eq!(offset, HEADER_LEN + RECORD_LEN),
        other => panic!("expected Corrupt, got {:?}", other.map(|(_, r)| r)),
    }
    match replay(&path, HEADER_LEN, HEADER_LEN + 3 * RECORD_LEN) {
        Err(LogError::Corrupt { offset }) => assert_eq!(offset, HEADER_LEN + RECORD_LEN),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupt_header_is_a_typed_error() {
    let path = filled("badheader", &[(0, 1)]);
    let mut bytes = fs::read(&path).expect("read");
    bytes[9] ^= 0x01; // inside num_users: header CRC no longer matches
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        StreamLog::open(&path),
        Err(LogError::HeaderCorrupt)
    ));

    let mut bytes = fs::read(&path).expect("read");
    bytes[0] = b'X'; // magic
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(StreamLog::open(&path), Err(LogError::BadMagic)));
}

#[test]
fn replay_from_mid_offset_matches_full_replay_then_skip() {
    let events: Vec<(usize, usize)> = (0..20).map(|i| (i % 8, (i % 100) + 1)).collect();
    let path = scratch("midoffset");
    let mut log = StreamLog::create(&path, CATALOG).expect("create");
    let mut offsets = vec![HEADER_LEN];
    for &(u, i) in &events {
        offsets.push(log.append(u, i).expect("append"));
    }
    let end = log.end();
    drop(log);

    let full = replay(&path, HEADER_LEN, end).expect("full replay");
    for (skip, &from) in offsets.iter().enumerate() {
        let tail = replay(&path, from, end).expect("mid replay");
        assert_eq!(
            tail,
            full[skip..],
            "replay from offset {from} (skip {skip})"
        );
    }
    // And bounded replays of interior windows agree too.
    let window = replay(&path, offsets[5], offsets[12]).expect("window");
    assert_eq!(window, full[5..12]);
}

#[test]
fn replay_rejects_unaligned_or_out_of_range_offsets() {
    let path = filled("offsets", &[(0, 1), (1, 2)]);
    let end = HEADER_LEN + 2 * RECORD_LEN;
    for bad in [0, HEADER_LEN + 1, end + RECORD_LEN] {
        match replay(&path, bad, end) {
            Err(LogError::BadOffset { offset, .. }) => assert_eq!(offset, bad),
            other => panic!("expected BadOffset for {bad}, got {other:?}"),
        }
    }
    // from > to is refused as well.
    assert!(matches!(
        replay(&path, end, HEADER_LEN),
        Err(LogError::BadOffset { .. })
    ));
}

#[test]
fn append_and_sync_fault_sites_fire() {
    use ssdrec_testkit::fault::{assert_fired_exactly, FaultPlan};
    let path = scratch("faults");
    let mut log = StreamLog::create(&path, CATALOG).expect("create");
    log.append(0, 1).expect("clean append");

    let armed = FaultPlan::new()
        .error("stream.append", 1)
        .error("stream.sync", 1)
        .arm();
    let err = log.append(1, 2).expect_err("injected append fault");
    assert!(matches!(err, LogError::Io(_)), "got {err:?}");
    let err = log.sync().expect_err("injected sync fault");
    assert!(matches!(err, LogError::Io(_)), "got {err:?}");
    assert_fired_exactly("stream.append", 1);
    assert_fired_exactly("stream.sync", 1);
    drop(armed);

    // The failed append wrote nothing: the log still has exactly one record.
    log.append(1, 2).expect("append after fault");
    log.sync().expect("sync after fault");
    drop(log);
    let (log, report) = StreamLog::open(&path).expect("reopen");
    assert_eq!(report.records, 2);
    assert_eq!(report.truncated_bytes, 0);
    drop(log);
}
