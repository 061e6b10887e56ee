//! Append-only interaction log.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! header (28 bytes):
//!   magic      b"SSLG"
//!   version    u32      — format version, currently 1
//!   num_users  u64      — fixed catalog: user IDs are 0..num_users
//!   num_items  u64      — fixed catalog: item IDs are 1..=num_items
//!   crc        u32      — CRC-32 (IEEE) of the preceding 24 bytes
//! records, back to back:
//!   len        u32      — payload length in bytes (currently always 16)
//!   payload    user u64, item u64
//!   crc        u32      — CRC-32 (IEEE) of the payload
//! ```
//!
//! Offsets are absolute file byte offsets; the first record starts at
//! [`HEADER_LEN`]. The catalog is fixed at creation so that every replay
//! prefix yields the same item/user ID space — the retrain
//! warm-starts from earlier parameters, which is only sound if embedding row
//! `i` keeps meaning item `i` forever.
//!
//! Recovery rules, applied when a log is opened for writing:
//!
//! * a record whose bytes run past end-of-file is a **torn tail** (a crash
//!   mid-append); it is truncated away and reported in [`OpenReport`].
//! * a *complete* record whose CRC does not match cannot have been produced
//!   by a torn sequential append — that is **corruption**, rejected with the
//!   typed [`LogError::Corrupt`] carrying the record's offset.
//!
//! Every read ([`StreamLog::open`] and [`replay`]) also holds each record to
//! the header's catalog with the predicate [`StreamLog::append`] checks
//! before writing ([`LogHeader::contains`]). A CRC-valid record outside it
//! was never appended to this log, so it is corruption too: refused with
//! [`LogError::Corrupt`] at its offset, before its IDs can index anything
//! downstream.
//!
//! Bounds: every field is read through `ssdrec_base::bytes`' cursor, and
//! the catalog, which sizes per-user tables downstream (`materialize`), is
//! at most [`MAX_CATALOG`] users and items: [`StreamLog::create`] and every
//! header read refuse a larger one, before anything is sized by it.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ssdrec_base::bytes::{crc32, Cursor, Overrun, Put};
use ssdrec_data::{Interaction, SequenceStore, MAX_CATALOG};

/// Log format magic bytes.
pub const MAGIC: [u8; 4] = *b"SSLG";
/// Current log format version.
pub const FORMAT_VERSION: u32 = 1;
/// Size of the file header in bytes; also the offset of the first record.
pub const HEADER_LEN: u64 = 28;
/// Size of one record in bytes (`len` + 16-byte payload + `crc`).
pub const RECORD_LEN: u64 = 24;
const PAYLOAD_LEN: u32 = 16;

/// Typed errors for log open/append/replay.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure (includes injected `stream.*` faults).
    Io(io::Error),
    /// The file does not start with the `SSLG` magic.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The header CRC does not match its contents.
    HeaderCorrupt,
    /// A complete record at `offset` failed its checks: its length field,
    /// its CRC, or its IDs against the header's catalog.
    Corrupt {
        /// Absolute file offset of the corrupt record.
        offset: u64,
    },
    /// An event's IDs fall outside the log's fixed catalog.
    OutOfCatalog {
        /// Offending user ID.
        user: usize,
        /// Offending item ID.
        item: usize,
        /// Catalog user count.
        num_users: usize,
        /// Catalog item count.
        num_items: usize,
    },
    /// A catalog of `(users, items)` past [`MAX_CATALOG`].
    CatalogTooLarge(u64, u64),
    /// A replay offset does not lie within `[HEADER_LEN, end]`.
    BadOffset {
        /// The requested offset.
        offset: u64,
        /// The log's end offset.
        end: u64,
    },
    /// A bulk-load source's catalog does not fit inside the log's fixed
    /// catalog (embedding row `i` must keep meaning item `i` forever, so a
    /// source with more users/items than the log was created for cannot be
    /// ingested).
    CatalogMismatch {
        /// The log's fixed user count.
        log_users: usize,
        /// The log's fixed item count.
        log_items: usize,
        /// The source's user count.
        source_users: usize,
        /// The source's item count.
        source_items: usize,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::BadMagic => write!(f, "not an SSLG interaction log (bad magic)"),
            LogError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported log format version {v} (expected {FORMAT_VERSION})"
                )
            }
            LogError::HeaderCorrupt => write!(f, "log header CRC mismatch"),
            LogError::Corrupt { offset } => write!(f, "corrupt log record at offset {offset}"),
            LogError::OutOfCatalog {
                user,
                item,
                num_users,
                num_items,
            } => write!(
                f,
                "event ({user}, {item}) outside the log catalog \
                 ({num_users} users, {num_items} items)"
            ),
            LogError::CatalogTooLarge(users, items) => write!(
                f,
                "log catalog ({users} users, {items} items) exceeds the bound of {MAX_CATALOG}"
            ),
            LogError::BadOffset { offset, end } => write!(
                f,
                "offset {offset} is not inside the log (records span {HEADER_LEN}..={end})"
            ),
            LogError::CatalogMismatch {
                log_users,
                log_items,
                source_users,
                source_items,
            } => write!(
                f,
                "source catalog ({source_users} users, {source_items} items) does not fit \
                 the log catalog ({log_users} users, {log_items} items)"
            ),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

impl From<Overrun> for LogError {
    fn from(e: Overrun) -> Self {
        LogError::Io(e.into())
    }
}

impl From<ssdrec_base::faults::Injected> for LogError {
    fn from(e: ssdrec_base::faults::Injected) -> Self {
        LogError::Io(e.into())
    }
}

/// The fixed catalog recorded in a log's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeader {
    /// User IDs are `0..num_users`.
    pub num_users: usize,
    /// Item IDs are `1..=num_items` (0 is padding, never logged).
    pub num_items: usize,
}

impl LogHeader {
    /// Whether `(user, item)` lies in the catalog: what
    /// [`StreamLog::append`] checks before it writes a record and every
    /// read checks of each record it returns.
    pub fn contains(&self, user: u64, item: u64) -> bool {
        user < self.num_users as u64 && item != 0 && item <= self.num_items as u64
    }

    /// The header's bytes: magic, version, catalog, CRC.
    fn encode(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.put_u32(FORMAT_VERSION);
        buf.put_u64(self.num_users as u64);
        buf.put_u64(self.num_items as u64);
        let crc = crc32(&buf);
        buf.put_u32(crc);
        buf
    }

    /// The header at the start of `bytes`, checked: magic, version, CRC,
    /// then the catalog bound.
    fn decode(bytes: &[u8]) -> Result<LogHeader, LogError> {
        if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC {
            return Err(LogError::BadMagic);
        }
        let mut c = Cursor::new(&bytes[4..]);
        let version = c.u32()?;
        if version != FORMAT_VERSION {
            return Err(LogError::BadVersion(version));
        }
        let (num_users, num_items) = (c.u64()?, c.u64()?);
        if c.u32()? != crc32(&bytes[..HEADER_LEN as usize - 4]) {
            return Err(LogError::HeaderCorrupt);
        }
        if num_users.max(num_items) > MAX_CATALOG as u64 {
            return Err(LogError::CatalogTooLarge(num_users, num_items));
        }
        Ok(LogHeader {
            num_users: num_users as usize,
            num_items: num_items as usize,
        })
    }
}

/// What [`StreamLog::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Number of valid records.
    pub records: u64,
    /// End offset (file length after any torn-tail truncation).
    pub end: u64,
    /// Bytes of torn tail discarded by truncation (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Writer handle over an append-only interaction log.
pub struct StreamLog {
    path: PathBuf,
    file: File,
    header: LogHeader,
    end: u64,
    records: u64,
}

/// The records in `bytes[from..to)`, each checked: its length field, its
/// CRC and its IDs against `header`'s catalog.
fn checked<'a>(
    bytes: &'a [u8],
    from: u64,
    to: u64,
    header: &'a LogHeader,
) -> impl Iterator<Item = Result<Interaction, LogError>> + 'a {
    (from as usize..to as usize)
        .step_by(RECORD_LEN as usize)
        .map(move |off| {
            let record = &bytes[off..off + RECORD_LEN as usize];
            let mut c = Cursor::new(record);
            let (len, user, item, crc) = (c.u32()?, c.u64()?, c.u64()?, c.u32()?);
            // A sequential append writes the whole record buffer in order,
            // so a complete length field with an impossible value is
            // corruption, not a crash artifact.
            if len != PAYLOAD_LEN || crc != crc32(&record[4..20]) || !header.contains(user, item) {
                return Err(LogError::Corrupt { offset: off as u64 });
            }
            let (user, item) = (user as usize, item as usize);
            Ok(Interaction { user, item })
        })
}

impl StreamLog {
    /// Create a new, empty log at `path` with a fixed catalog.
    ///
    /// Fails if the file already exists, or with
    /// [`LogError::CatalogTooLarge`] past [`MAX_CATALOG`].
    pub fn create(path: impl AsRef<Path>, header: LogHeader) -> Result<StreamLog, LogError> {
        // What a header read refuses, create refuses too.
        let bytes = header.encode();
        LogHeader::decode(&bytes)?;
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(&bytes)?;
        Ok(StreamLog {
            path,
            file,
            header,
            end: HEADER_LEN,
            records: 0,
        })
    }

    /// Open an existing log for appending.
    ///
    /// Validates the header, scans every record, truncates a torn tail, and
    /// rejects mid-log corruption, a record outside the catalog included,
    /// with [`LogError::Corrupt`].
    pub fn open(path: impl AsRef<Path>) -> Result<(StreamLog, OpenReport), LogError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let header = LogHeader::decode(&bytes)?;
        // A record whose bytes run past EOF is a torn tail.
        let records = (bytes.len() as u64 - HEADER_LEN) / RECORD_LEN;
        let end = HEADER_LEN + records * RECORD_LEN;
        checked(&bytes, HEADER_LEN, end, &header).try_for_each(|r| r.map(drop))?;
        let truncated_bytes = bytes.len() as u64 - end;
        if truncated_bytes > 0 {
            file.set_len(end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(end))?;
        let report = OpenReport {
            records,
            end,
            truncated_bytes,
        };
        let log = StreamLog {
            path,
            file,
            header,
            end,
            records,
        };
        Ok((log, report))
    }

    /// Path the log was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fixed catalog.
    pub fn header(&self) -> LogHeader {
        self.header
    }

    /// End offset: the byte offset one past the last valid record.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of valid records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append one interaction; returns the new end offset.
    ///
    /// Fault site `stream.append` fires before any bytes are written, so an
    /// injected error never leaves a partial record.
    pub fn append(&mut self, user: usize, item: usize) -> Result<u64, LogError> {
        if !self.header.contains(user as u64, item as u64) {
            return Err(LogError::OutOfCatalog {
                user,
                item,
                num_users: self.header.num_users,
                num_items: self.header.num_items,
            });
        }
        ssdrec_base::faults::point("stream.append")?;
        let mut rec = Vec::with_capacity(RECORD_LEN as usize);
        rec.put_u32(PAYLOAD_LEN);
        rec.put_u64(user as u64);
        rec.put_u64(item as u64);
        let crc = crc32(&rec[4..]);
        rec.put_u32(crc);
        self.file.write_all(&rec)?;
        self.end += RECORD_LEN;
        self.records += 1;
        Ok(self.end)
    }

    /// Append a batch of `(user, item)` events; returns the new end offset.
    pub fn append_all(
        &mut self,
        events: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<u64, LogError> {
        for (user, item) in events {
            self.append(user, item)?;
        }
        Ok(self.end)
    }

    /// Append every interaction of a [`SequenceStore`] in user-major order.
    ///
    /// The source catalog must *fit inside* the log's fixed catalog
    /// (`source_users <= log_users && source_items <= log_items`), otherwise
    /// the whole load is rejected up front with
    /// [`LogError::CatalogMismatch`] and no bytes are written. Returns the
    /// number of records appended.
    pub fn bulk_load(&mut self, store: &dyn SequenceStore) -> Result<u64, LogError> {
        if store.num_users() > self.header.num_users || store.num_items() > self.header.num_items {
            return Err(LogError::CatalogMismatch {
                log_users: self.header.num_users,
                log_items: self.header.num_items,
                source_users: store.num_users(),
                source_items: store.num_items(),
            });
        }
        let before = self.records;
        let mut seq = Vec::new();
        for u in 0..store.num_users() {
            store.read_seq(u, &mut seq);
            for &item in &seq {
                self.append(u, item)?;
            }
        }
        Ok(self.records - before)
    }

    /// Flush appended records to stable storage (fault site `stream.sync`).
    pub fn sync(&mut self) -> Result<(), LogError> {
        ssdrec_base::faults::point("stream.sync")?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Read-only replay of the records in `[from, to)` byte offsets.
///
/// `from = HEADER_LEN` replays from the start; `to` is typically a consumed
/// offset recorded in a versioned checkpoint, or [`StreamLog::end`]. Both
/// bounds must lie on record boundaries. Replay never truncates the file —
/// bytes at or past `to` (including a torn tail) are ignored. Every record
/// is checked as [`StreamLog::open`] checks it.
pub fn replay(path: impl AsRef<Path>, from: u64, to: u64) -> Result<Vec<Interaction>, LogError> {
    let bytes = std::fs::read(path)?;
    let header = LogHeader::decode(&bytes)?;
    let end = bytes.len() as u64;
    let bound_ok =
        |off: u64| off >= HEADER_LEN && off <= end && (off - HEADER_LEN) % RECORD_LEN == 0;
    if !bound_ok(from) || !bound_ok(to) || from > to {
        let bad = if bound_ok(from) { to } else { from };
        return Err(LogError::BadOffset { offset: bad, end });
    }
    checked(&bytes, from, to, &header).collect()
}

/// Read a log's header without opening it for writing.
pub fn read_header(path: impl AsRef<Path>) -> Result<LogHeader, LogError> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?
        .take(HEADER_LEN)
        .read_to_end(&mut buf)?;
    LogHeader::decode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = LogHeader {
            num_users: 12,
            num_items: 34,
        };
        assert_eq!(LogHeader::decode(&h.encode()).unwrap(), h);
    }

    fn scratch() -> ssdrec_testkit::TempDir {
        ssdrec_testkit::TempDir::new("ssdrec-bulk")
    }

    fn toy_dataset(num_users: usize, num_items: usize) -> ssdrec_data::Dataset {
        ssdrec_data::Dataset {
            name: "toy".into(),
            num_users,
            num_items,
            sequences: (0..num_users)
                .map(|u| vec![1 + u % num_items, 1 + (u + 1) % num_items])
                .collect(),
            noise_labels: None,
        }
    }

    #[test]
    fn create_refuses_a_catalog_past_the_bound_and_the_bound_opens() {
        let dir = scratch();
        let at = |users, items| LogHeader {
            num_users: users,
            num_items: items,
        };
        for (header, name) in [
            (at(MAX_CATALOG + 1, 1), "users"),
            (at(1, MAX_CATALOG + 1), "items"),
        ] {
            let path = dir.join(format!("{name}.sslg"));
            match StreamLog::create(&path, header) {
                Err(e @ LogError::CatalogTooLarge(..)) => {
                    assert!(e.to_string().contains("exceeds"))
                }
                other => panic!("{name}: expected CatalogTooLarge, got {:?}", other.err()),
            }
            assert!(!path.exists(), "{name}: a refused log leaves no file");
        }
        // A log written at the bound reads back.
        let path = dir.join("bound.sslg");
        drop(StreamLog::create(&path, at(MAX_CATALOG, MAX_CATALOG)).unwrap());
        let (log, _) = StreamLog::open(&path).unwrap();
        assert_eq!(log.header(), at(MAX_CATALOG, MAX_CATALOG));
    }

    #[test]
    fn bulk_load_rejects_oversized_catalog() {
        let dir = scratch();
        let mut log = StreamLog::create(
            dir.join("mismatch.sslg"),
            LogHeader {
                num_users: 2,
                num_items: 5,
            },
        )
        .unwrap();
        let ds = toy_dataset(3, 5);
        match log.bulk_load(&ds) {
            Err(LogError::CatalogMismatch {
                log_users: 2,
                log_items: 5,
                source_users: 3,
                source_items: 5,
            }) => {}
            other => panic!("expected CatalogMismatch, got {other:?}"),
        }
        // Nothing was written: the check happens before any append.
        assert_eq!(log.records(), 0);
        assert_eq!(log.end(), HEADER_LEN);
    }

    #[test]
    fn bulk_load_matches_flattened_append_all() {
        let header = LogHeader {
            num_users: 4,
            num_items: 6,
        };
        let ds = toy_dataset(4, 6);

        let dir = scratch();
        let mut bulk = StreamLog::create(dir.join("bulk.sslg"), header).unwrap();
        let appended = bulk.bulk_load(&ds).unwrap();
        bulk.sync().unwrap();
        assert_eq!(appended, ds.num_actions() as u64);

        let mut manual = StreamLog::create(dir.join("manual.sslg"), header).unwrap();
        let events: Vec<(usize, usize)> = ds
            .sequences
            .iter()
            .enumerate()
            .flat_map(|(u, seq)| seq.iter().map(move |&i| (u, i)))
            .collect();
        manual.append_all(events).unwrap();
        manual.sync().unwrap();

        let a = std::fs::read(bulk.path()).unwrap();
        let b = std::fs::read(manual.path()).unwrap();
        assert_eq!(a, b, "bulk load must be byte-identical to manual appends");

        let replayed = replay(bulk.path(), HEADER_LEN, bulk.end()).unwrap();
        assert_eq!(replayed.len(), ds.num_actions());
        assert_eq!(replayed[0].user, 0);
        assert_eq!(replayed[0].item, ds.sequences[0][0]);
    }
}
