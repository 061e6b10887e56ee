//! Binary encoding primitives shared by the columnar dataset file
//! ([`crate::colfile`]) and the streaming log in `ssdrec-stream`.
//!
//! * **varint** — LEB128: 7 payload bits per byte, high bit = continuation.
//! * **zigzag** — maps signed deltas onto unsigned varints so that small
//!   negative jumps (common in delta-coded item ids) stay short:
//!   `0, -1, 1, -2, … → 0, 1, 2, 3, …`.
//! * **CRC-32** — the IEEE polynomial (0xEDB88320), table-driven, with a
//!   streaming [`Crc32`] for sections too large to hold in RAM.
//!
//! Every encoder here is a pure function of its input: encoded bytes are
//! byte-identical across runs, hosts, and thread counts — the same canonical
//! discipline the rest of the workspace applies to checkpoints and logs.

use std::fmt;
use std::io;

/// Maximum encoded size of a `u64` varint (⌈64/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` to `out` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint from `buf[pos..]`, advancing `pos`.
///
/// Returns `None` on truncation or on a varint longer than
/// [`MAX_VARINT_LEN`] bytes (an overlong/corrupt encoding).
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for _ in 0..MAX_VARINT_LEN {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
    None
}

/// Zigzag-encode a signed value for varint storage.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Streaming CRC-32 for data processed in chunks.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

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
    /// The file carries a format version this reader does not understand.
    BadVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The file ends before a complete structure could be read.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
    },
    /// The footer (section table) is missing or malformed.
    BadFooter,
    /// A section's stored CRC-32 does not match its payload.
    SectionCrc {
        /// Four-character section tag, e.g. `"ITEM"`.
        section: String,
    },
    /// A required section is absent from the footer table.
    MissingSection {
        /// Four-character section tag.
        section: &'static str,
    },
    /// A decoded value is structurally impossible (overlong varint,
    /// out-of-range id, inconsistent counts…).
    Corrupt {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
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
            FormatError::BadVersion { found } => {
                write!(f, "unsupported columnar format version {found}")
            }
            FormatError::Truncated { what } => write!(f, "truncated columnar file ({what})"),
            FormatError::BadFooter => write!(f, "missing or malformed columnar footer"),
            FormatError::SectionCrc { section } => {
                write!(f, "CRC mismatch in section {section}")
            }
            FormatError::MissingSection { section } => {
                write!(f, "required section {section} missing")
            }
            FormatError::Corrupt { detail } => write!(f, "corrupt columnar data: {detail}"),
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

#[cfg(test)]
mod tests {
    use super::*;

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
            write_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
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
        let mut c = Crc32::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }
}
