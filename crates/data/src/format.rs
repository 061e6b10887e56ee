//! The columnar dataset format's typed error, [`FormatError`], and the
//! catalogue bound every dataset file shares, [`MAX_CATALOG`]. Its byte
//! primitives (LEB128 varint, zigzag, CRC-32, the bounded cursor) are
//! `ssdrec_base::bytes`'; the tests below pin the encodings the `.ssdc` and
//! `.sslg` bytes on disk depend on.

use std::fmt;
use std::io;

use ssdrec_base::bytes::Overrun;

/// The most items (and, in an interaction log, the most users) a dataset
/// file's catalogue may hold: 2²⁴, far past any dataset profile. A
/// catalogue sizes embedding tables and per-user tables downstream, so
/// every writer and reader refuses a larger one before anything is sized
/// by it.
pub const MAX_CATALOG: usize = 1 << 24;

/// Typed errors for the columnar dataset format.
///
/// Every rejection path names what was wrong and where; no reader error is a
/// bare string. I/O failures wrap the underlying [`io::Error`].
#[derive(Debug)]
pub enum FormatError {
    /// Underlying filesystem error (including injected `write.data` faults).
    Io(io::Error),
    /// The file does not start with the `SSDC` magic.
    BadMagic,
    /// The file carries a format version (the one found) this reader does
    /// not understand.
    BadVersion(u32),
    /// The footer (section table) is missing or malformed.
    BadFooter,
    /// The stored CRC-32 of a section (its four-character tag, e.g.
    /// `"ITEM"`) does not match its payload.
    SectionCrc(&'static str),
    /// A required section (its tag) is absent from the footer table.
    MissingSection(&'static str),
    /// A decoded value is structurally impossible (out-of-range id,
    /// inconsistent counts…), described.
    Corrupt(String),
    /// A field, count or length needs more bytes than its section, or the
    /// file, holds (the bounded cursor's refusal).
    Overrun(Overrun),
    /// A catalogue of this many items, past [`MAX_CATALOG`].
    CatalogTooLarge(u64),
    /// An item id pushed to the writer falls outside `1..=num_items`.
    ItemOutOfRange {
        /// User whose sequence contained the offending id.
        user: usize,
        /// The offending item id.
        item: usize,
        /// The writer's pinned catalogue size.
        num_items: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "columnar I/O error: {e}"),
            FormatError::BadMagic => write!(f, "not a columnar dataset (bad magic)"),
            FormatError::BadVersion(found) => write!(f, "unsupported version {found}"),
            FormatError::BadFooter => write!(f, "missing or malformed columnar footer"),
            FormatError::SectionCrc(tag) => write!(f, "CRC mismatch in section {tag}"),
            FormatError::MissingSection(tag) => write!(f, "section {tag} missing"),
            FormatError::Corrupt(detail) => write!(f, "corrupt columnar data: {detail}"),
            FormatError::Overrun(e) => write!(f, "corrupt columnar data: {e}"),
            FormatError::CatalogTooLarge(items) => write!(
                f,
                "a catalogue of {items} items exceeds the bound of {MAX_CATALOG}"
            ),
            FormatError::ItemOutOfRange {
                user,
                item,
                num_items,
            } => write!(
                f,
                "item {item} of user {user} outside catalogue 1..={num_items}"
            ),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

impl From<Overrun> for FormatError {
    fn from(e: Overrun) -> Self {
        FormatError::Overrun(e)
    }
}

#[cfg(test)]
mod tests {
    use ssdrec_base::bytes::{crc32, read_varint, unzigzag, zigzag, Crc32, Put, MAX_VARINT_LEN};

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            buf.put_varint(v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        let mut buf = Vec::new();
        buf.put_varint(u64::MAX);
        let mut pos = 0;
        assert_eq!(read_varint(&buf[..buf.len() - 1], &mut pos), None);
        // 11 continuation bytes can never be a valid u64.
        let overlong = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456, 123_456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes (the point of zigzag).
        assert!(zigzag(-1) < 8 && zigzag(1) < 8);
    }

    #[test]
    fn crc_matches_known_vector() {
        // CRC-32("123456789") is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_crc_equals_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut c = Crc32::default();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }
}
