//! One hostile-input harness for the workspace's byte formats (`.ssdt`,
//! `.sstc`, `.ssdc`, `.sslg`). A [`Format`] says how a value encodes, how
//! bytes decode, and where its length and count fields sit; the four
//! functions here hold every format to the same properties:
//!
//! * [`round_trip`] — an unflipped encoding decodes, and what it decodes
//!   to encodes to the same bytes;
//! * [`strict_prefixes`] — every strict prefix is refused, or, for a format
//!   that recovers a prefix by design (the log truncates a torn tail),
//!   accepted as [`Format::prefix_ok`] allows;
//! * [`byte_flips`] — 1–6 flipped bytes never panic;
//! * [`forged_counts`] — every length or count field set to all ones
//!   (`u32::MAX` / `u64::MAX`), checksums recomputed, is refused with an
//!   error that names it, before anything is allocated from it: such a
//!   count would ask for GiB to EiB, and `u64::MAX` items panic any
//!   allocation sized by them.
//!
//! Each property is a plain function of one value, called from a
//! `property!` case or a `#[test]` in the format's own suite.

use std::fmt::{Debug, Display};

use crate::Rng;

/// A length or count field: its byte offset, its width (4 or 8) and the
/// substrings the error refusing it forged must contain.
#[derive(Clone, Debug)]
pub struct Field {
    /// Byte offset in the encoding.
    pub at: usize,
    /// Width in bytes.
    pub width: usize,
    /// What the refusal must say.
    pub says: &'static [&'static str],
}

/// A byte format under test.
pub trait Format {
    /// What the format encodes.
    type Value;
    /// The format's typed error.
    type Error: Debug + Display;

    /// The bytes of `v`.
    fn encode(&self, v: &Self::Value) -> Vec<u8>;

    /// Decode `bytes` as a reader of `v`'s kind would, and encode what it
    /// read. `v` is what the reader knows besides the bytes (the `.ssdt`
    /// loader's store); a format needing nothing ignores it.
    fn decode(&self, v: &Self::Value, bytes: &[u8]) -> Result<Vec<u8>, Self::Error>;

    /// Whether `e` is one of the error kinds the format reports (a
    /// refusal, never an unrelated failure).
    fn typed(&self, e: &Self::Error) -> bool {
        let _ = e;
        true
    }

    /// Whether `got`, the decode of `bytes[..cut]`, is acceptable for a
    /// strict prefix. By default only a refusal is.
    fn prefix_ok(&self, bytes: &[u8], cut: usize, got: &Result<Vec<u8>, Self::Error>) -> bool {
        let _ = (bytes, cut);
        got.is_err()
    }

    /// The length and count fields of `bytes`, an encoding of this format.
    fn fields(&self, bytes: &[u8]) -> Vec<Field>;

    /// Recompute the checksums of `forged`, a copy of `original` with one
    /// field changed, so the field itself is what the reader must refuse.
    fn reseal(&self, original: &[u8], forged: &mut [u8]) {
        let _ = (original, forged);
    }
}

/// `v` encodes, decodes, and encodes again to the same bytes.
pub fn round_trip<F: Format>(f: &F, v: &F::Value) {
    let bytes = f.encode(v);
    match f.decode(v, &bytes) {
        Ok(again) => assert!(again == bytes, "the decoded value encodes to other bytes"),
        Err(e) => panic!("a valid encoding is refused: {e}"),
    }
}

/// Every strict prefix of `v`'s encoding is refused, or accepted as
/// [`Format::prefix_ok`] allows.
pub fn strict_prefixes<F: Format>(f: &F, v: &F::Value) {
    let bytes = f.encode(v);
    for cut in 0..bytes.len() {
        let got = f.decode(v, &bytes[..cut]);
        if let Err(e) = &got {
            assert!(
                f.typed(e),
                "prefix {cut}/{}: untyped error {e:?}",
                bytes.len()
            );
        }
        assert!(
            f.prefix_ok(&bytes, cut, &got),
            "prefix {cut}/{}: {:?}",
            bytes.len(),
            got.map(|b| b.len())
        );
    }
}

/// `flips` bytes of `v`'s encoding, picked and changed by `salt`'s stream,
/// never panic the decoder: it refuses them with a typed error or decodes.
/// Returns the flipped bytes, for a format's own further checks.
pub fn byte_flips<F: Format>(f: &F, v: &F::Value, flips: usize, salt: u64) -> Vec<u8> {
    let mut bytes = f.encode(v);
    let mut rng = Rng::seed(salt);
    for _ in 0..flips {
        let pos = rng.below(bytes.len());
        bytes[pos] ^= 1 + rng.below(255) as u8;
    }
    if let Err(e) = f.decode(v, &bytes) {
        assert!(f.typed(&e), "{flips} flips: untyped error {e:?}");
    }
    bytes
}

/// Each of [`Format::fields`] set to all ones, the checksums resealed, is
/// refused with an error that says what [`Field::says`].
pub fn forged_counts<F: Format>(f: &F, v: &F::Value) {
    let bytes = f.encode(v);
    let fields = f.fields(&bytes);
    assert!(!fields.is_empty(), "a format with no count fields");
    for field in fields {
        let mut forged = bytes.clone();
        forged[field.at..field.at + field.width].fill(0xFF);
        f.reseal(&bytes, &mut forged);
        let Err(e) = f.decode(v, &forged) else {
            panic!("{field:?}: accepted");
        };
        assert!(f.typed(&e), "{field:?}: untyped error {e:?}");
        for s in field.says {
            assert!(e.to_string().contains(s), "{field:?}: {e}");
        }
    }
}
