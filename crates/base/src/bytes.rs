//! The one byte codec of the file formats (`.ssdt`, `.sstc`, `.ssdc`,
//! `.sslg`): a bounded [`Cursor`] over a slice and the [`Put`] writer on a
//! `Vec<u8>`, for little-endian `u32`, `u64` and `f32` runs, 4-byte tags,
//! `u32`-length-prefixed names and LEB128 varints (7 payload bits a byte,
//! high bit = continuation); [`zigzag`], which keeps small negative deltas
//! short (`0, -1, 1, -2, … → 0, 1, 2, 3, …`); and the IEEE CRC-32, with a
//! streaming [`Crc32`] for sections too large to hold in RAM.
//!
//! The cursor checks every read and every count against the bytes left
//! before anything is allocated from it, so a forged length is an
//! [`Overrun`] — its one refusal, which always says "overruns" — never a
//! multi-GiB allocation or a panic. Each format wraps it in its own typed
//! error through `From`.

use std::fmt;
use std::io;

/// Maximum encoded size of a `u64` varint (⌈64/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// A read or a count that needs more bytes than are left: the one refusal
/// of a [`Cursor`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Overrun(String);

impl Overrun {
    fn new(what: impl fmt::Display, left: u64) -> Self {
        Overrun(format!("{what} overruns the {left} bytes left"))
    }
}

/// `n` items of at least `item_bytes` each, as a `usize`, unless `left`
/// bytes cannot hold them; `what` names them in the refusal. The bound
/// under [`Cursor::count`], for a count whose items are not all in memory.
pub fn bounded(
    n: u64,
    item_bytes: u64,
    left: u64,
    what: impl FnOnce() -> String,
) -> Result<usize, Overrun> {
    match n.checked_mul(item_bytes) {
        Some(need) if need <= left => Ok(n as usize),
        _ => Err(Overrun::new(what(), left)),
    }
}

impl fmt::Display for Overrun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Overrun {}

impl From<Overrun> for io::Error {
    fn from(e: Overrun) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A read position in a byte slice.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not read yet.
    pub fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `n` items of at least `item_bytes` each, as a `usize`, unless the
    /// bytes left cannot hold them; `what` names them in the refusal.
    pub fn count(
        &self,
        n: u64,
        item_bytes: u64,
        what: impl FnOnce() -> String,
    ) -> Result<usize, Overrun> {
        bounded(n, item_bytes, self.left() as u64, what)
    }

    /// A `u32` count of items of at least `item_bytes` each, checked by
    /// [`Cursor::count`]; `what` names it (`"a tensor count"`).
    pub fn u32_count(&mut self, item_bytes: u64, what: &str) -> Result<usize, Overrun> {
        let n = self.u32()?;
        self.count(n as u64, item_bytes, || format!("{what} of {n}"))
    }

    /// The next `n` bytes; `what` names them in the refusal.
    pub fn bytes(&mut self, n: usize, what: impl FnOnce() -> String) -> Result<&'a [u8], Overrun> {
        if n > self.left() {
            return Err(Overrun::new(what(), self.left() as u64));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes: a 4-byte tag, or a fixed field.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Overrun> {
        let b = self.bytes(N, || format!("a {N}-byte field"))?;
        Ok(b.try_into().expect("N bytes"))
    }

    /// One `u32`.
    pub fn u32(&mut self) -> Result<u32, Overrun> {
        self.array().map(u32::from_le_bytes)
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, Overrun> {
        self.array().map(u64::from_le_bytes)
    }

    /// A run of `n` `f32`s, checked before it is allocated.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Overrun> {
        let b = self.bytes(n.saturating_mul(4), || format!("a run of {n} f32s"))?;
        let f32_at = |c: &[u8]| f32::from_le_bytes(c.try_into().expect("4 bytes"));
        Ok(b.chunks_exact(4).map(f32_at).collect())
    }

    /// A name as [`Put::put_name`] wrote it: its byte count, then its
    /// bytes (UTF-8 is the caller's to check).
    pub fn name(&mut self) -> Result<&'a [u8], Overrun> {
        let len = self.u32()?;
        self.bytes(len as usize, || {
            format!("the name is {len} bytes: a name length that")
        })
    }

    /// One LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, Overrun> {
        read_varint(self.buf, &mut self.pos)
            .ok_or_else(|| Overrun::new("a varint (at most 10 bytes)", self.left() as u64))
    }
}

/// Little-endian writes onto a byte buffer: what a [`Cursor`] reads back.
pub trait Put {
    /// One `u32`.
    fn put_u32(&mut self, v: u32);
    /// One `u64`.
    fn put_u64(&mut self, v: u64);
    /// A run of `f32`s.
    fn put_f32s(&mut self, v: &[f32]);
    /// A name: its byte count as a `u32`, then its bytes.
    fn put_name(&mut self, name: &str);
    /// One LEB128 varint.
    fn put_varint(&mut self, v: u64);
}

impl Put for Vec<u8> {
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32s(&mut self, v: &[f32]) {
        for x in v {
            self.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn put_name(&mut self, name: &str) {
        self.put_u32(name.len() as u32);
        self.extend_from_slice(name.as_bytes());
    }

    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.push(byte);
                return;
            }
            self.push(byte | 0x80);
        }
    }
}

/// The LEB128 varint at `buf[pos..]`, advancing `pos`; `None` if it is cut
/// short or longer than [`MAX_VARINT_LEN`] bytes. The slice loop under
/// [`Cursor::varint`], for hot loops over input already validated.
#[inline]
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
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
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
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::default();
    c.update(bytes);
    c.finish()
}

/// Streaming CRC-32 for data processed in chunks.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }
}

impl Crc32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_and_count_past_the_end_is_one_overrun() {
        let mut buf = Vec::new();
        buf.put_u32(7);
        buf.put_name("ab");
        buf.put_f32s(&[1.5, -0.0]);
        buf.push(0x80); // a varint cut short
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32(), Ok(7));
        assert_eq!(c.name(), Ok(&b"ab"[..]));
        let left = c.left();
        let e = c
            .count(u64::MAX, 8, || "a forged count".into())
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            format!("a forged count overruns the {left} bytes left")
        );
        assert!(c
            .f32s(usize::MAX)
            .unwrap_err()
            .to_string()
            .contains("overruns"));
        assert_eq!(c.left(), left, "a refused read consumes nothing");
        let floats: Vec<u32> = c.f32s(2).unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(floats, [1.5f32.to_bits(), (-0.0f32).to_bits()]);
        assert!(c.varint().unwrap_err().to_string().contains("overruns"));
        assert!(c.u64().unwrap_err().to_string().contains("overruns"));
        let mut forged = Vec::new();
        forged.put_u32(u32::MAX);
        let e = Cursor::new(&forged).name().unwrap_err().to_string();
        assert!(
            e.contains("name is 4294967295 bytes") && e.contains("overruns"),
            "{e}"
        );
    }
}
