//! The `.ssdc` columnar dataset file: an out-of-core, CRC-checked binary
//! layout for interaction sequences.
//!
//! ## Layout (version 1)
//!
//! ```text
//! header   16 B   "SSDC" · version u32 LE · flags u32 LE · reserved u32
//! ITEM     …      item-id column: per user, zigzag-varint deltas (prev = 0
//!                 at each sequence start) — streamed, never buffered whole
//! META     …      name len u32 LE · name bytes · num_users u64 ·
//!                 num_items u64 · num_interactions u64
//! LENS     …      per-user interaction count, varint ×num_users
//! OFFS     …      per-user byte offset into ITEM, delta-varint
//!                 ×(num_users+1); first entry 0, last = ITEM length
//! NOIS     …      (flag bit 0) noise-label bitmap, user-major, LSB first
//! TIME     …      (flag bit 1) per-user zigzag-varint timestamp deltas
//! footer   …      per section: tag 4 B · offset u64 · len u64 · crc u32;
//!                 then count u32 · footer crc u32 · "CDSS"
//! ```
//!
//! Section payload CRCs and the footer CRC are IEEE CRC-32
//! ([`crate::format::crc32`]). The encoder is a pure function of its input:
//! bytes are identical across runs, hosts, and thread counts.
//!
//! Writes are atomic: everything goes to `<path>.tmp`, is flushed and
//! fsynced, passes the `write.data` fault site, and only then is renamed
//! over `path` — a crash or injected fault can never leave a torn `.ssdc`.
//!
//! [`ColumnarReader::open`] verifies the header, the footer table, and every
//! section CRC (large sections are scanned in bounded chunks), and
//! structurally validates the whole item column once — after a successful
//! open, per-user reads are infallible and served through a small reusable
//! window buffer (`pread`, no full materialization).

use std::cell::RefCell;
use std::fs::{self, File};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::format::{crc32, read_varint, unzigzag, write_varint, zigzag, Crc32, FormatError};
use crate::interaction::Dataset;

const MAGIC: &[u8; 4] = b"SSDC";
const FOOTER_MAGIC: &[u8; 4] = b"CDSS";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
const FLAG_NOISE: u32 = 1;
const FLAG_TIME: u32 = 1 << 1;
/// Bytes per footer-table entry: tag + offset + len + crc.
const SECTION_ENTRY_LEN: usize = 4 + 8 + 8 + 4;
/// Default reusable read-window size (bytes).
const WINDOW_LEN: usize = 1 << 20;
/// Chunk size for streaming CRC verification of large sections.
const SCAN_CHUNK: usize = 1 << 20;

/// What a completed write produced (for logs and benches).
#[derive(Clone, Debug)]
pub struct ColumnarSummary {
    /// Users written.
    pub num_users: usize,
    /// Total interactions written.
    pub num_interactions: u64,
    /// Final file size in bytes.
    pub bytes: u64,
}

/// Streaming writer for `.ssdc` files.
///
/// Sequences are pushed one user at a time in user order; only the small
/// index columns (lengths, offsets, noise bits, timestamps) are buffered in
/// RAM — the item column streams straight to disk, so peak memory is
/// independent of the dataset's interaction count.
pub struct ColumnarWriter {
    tmp: PathBuf,
    path: PathBuf,
    file: Option<BufWriter<File>>,
    name: String,
    num_items: usize,
    has_noise: bool,
    has_times: bool,
    num_users: usize,
    num_interactions: u64,
    item_bytes: u64,
    item_crc: Crc32,
    scratch: Vec<u8>,
    lens: Vec<u8>,
    offs: Vec<u8>,
    noise_bits: Vec<u8>,
    noise_fill: u64,
    times: Vec<u8>,
}

impl ColumnarWriter {
    /// Start writing `path` (via `path.tmp`). `has_noise` / `has_times`
    /// decide whether every pushed user must carry those columns.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        num_items: usize,
        has_noise: bool,
        has_times: bool,
    ) -> Result<Self, FormatError> {
        let path = path.as_ref().to_path_buf();
        let tmp = tmp_path(&path);
        let mut file = BufWriter::new(File::create(&tmp)?);
        let mut flags = 0u32;
        if has_noise {
            flags |= FLAG_NOISE;
        }
        if has_times {
            flags |= FLAG_TIME;
        }
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.write_all(&flags.to_le_bytes())?;
        file.write_all(&0u32.to_le_bytes())?;
        let mut offs = Vec::new();
        write_varint(&mut offs, 0); // first offset is always 0
        Ok(ColumnarWriter {
            tmp,
            path,
            file: Some(file),
            name: name.to_string(),
            num_items,
            has_noise,
            has_times,
            num_users: 0,
            num_interactions: 0,
            item_bytes: 0,
            item_crc: Crc32::new(),
            scratch: Vec::new(),
            lens: Vec::new(),
            offs,
            noise_bits: Vec::new(),
            noise_fill: 0,
            times: Vec::new(),
        })
    }

    /// Append the next user's sequence (user ids are implicit: the `n`-th
    /// push is user `n`). `noise` / `times` must be present iff the writer
    /// was created with the corresponding column, and match `seq` in length.
    pub fn push_user(
        &mut self,
        seq: &[usize],
        noise: Option<&[bool]>,
        times: Option<&[i64]>,
    ) -> Result<(), FormatError> {
        assert_eq!(
            self.has_noise,
            noise.is_some(),
            "noise column presence must match ColumnarWriter::create"
        );
        assert_eq!(
            self.has_times,
            times.is_some(),
            "time column presence must match ColumnarWriter::create"
        );
        self.scratch.clear();
        let mut prev = 0i64;
        for &it in seq {
            if it < 1 || it > self.num_items {
                return Err(FormatError::ItemOutOfRange {
                    user: self.num_users,
                    item: it,
                    num_items: self.num_items,
                });
            }
            write_varint(&mut self.scratch, zigzag(it as i64 - prev));
            prev = it as i64;
        }
        self.item_crc.update(&self.scratch);
        self.item_bytes += self.scratch.len() as u64;
        self.file
            .as_mut()
            .expect("writer already finished")
            .write_all(&self.scratch)?;

        write_varint(&mut self.lens, seq.len() as u64);
        write_varint(&mut self.offs, self.scratch.len() as u64);
        if let Some(nz) = noise {
            assert_eq!(nz.len(), seq.len(), "noise labels must align with seq");
            for &b in nz {
                let bit = self.noise_fill;
                if bit % 8 == 0 {
                    self.noise_bits.push(0);
                }
                if b {
                    *self.noise_bits.last_mut().unwrap() |= 1 << (bit % 8);
                }
                self.noise_fill += 1;
            }
        }
        if let Some(ts) = times {
            assert_eq!(ts.len(), seq.len(), "timestamps must align with seq");
            let mut prev = 0i64;
            for &t in ts {
                write_varint(&mut self.times, zigzag(t.wrapping_sub(prev)));
                prev = t;
            }
        }
        self.num_users += 1;
        self.num_interactions += seq.len() as u64;
        Ok(())
    }

    /// Write the index sections and footer, fsync, pass the `write.data`
    /// fault site, and atomically rename into place.
    pub fn finish(mut self) -> Result<ColumnarSummary, FormatError> {
        let mut file = self.file.take().expect("writer already finished");

        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        meta.extend_from_slice(self.name.as_bytes());
        meta.extend_from_slice(&(self.num_users as u64).to_le_bytes());
        meta.extend_from_slice(&(self.num_items as u64).to_le_bytes());
        meta.extend_from_slice(&self.num_interactions.to_le_bytes());

        // Section table: ITEM first (streamed behind the header), then the
        // buffered index columns in a fixed order.
        let mut table: Vec<(&[u8; 4], u64, u64, u32)> = Vec::new();
        table.push((b"ITEM", HEADER_LEN, self.item_bytes, self.item_crc.finish()));
        let mut cursor = HEADER_LEN + self.item_bytes;
        let mut small: Vec<(&[u8; 4], &[u8])> = vec![
            (b"META", &meta),
            (b"LENS", &self.lens),
            (b"OFFS", &self.offs),
        ];
        if self.has_noise {
            small.push((b"NOIS", &self.noise_bits));
        }
        if self.has_times {
            small.push((b"TIME", &self.times));
        }
        for (tag, payload) in small {
            file.write_all(payload)?;
            table.push((tag, cursor, payload.len() as u64, crc32(payload)));
            cursor += payload.len() as u64;
        }

        let mut footer = Vec::new();
        for &(tag, off, len, crc) in &table {
            footer.extend_from_slice(tag);
            footer.extend_from_slice(&off.to_le_bytes());
            footer.extend_from_slice(&len.to_le_bytes());
            footer.extend_from_slice(&crc.to_le_bytes());
        }
        footer.extend_from_slice(&(table.len() as u32).to_le_bytes());
        let fcrc = crc32(&footer);
        footer.extend_from_slice(&fcrc.to_le_bytes());
        footer.extend_from_slice(FOOTER_MAGIC);
        file.write_all(&footer)?;
        let bytes = cursor + footer.len() as u64;

        let cleanup = |tmp: &Path, e: FormatError| -> FormatError {
            let _ = fs::remove_file(tmp);
            e
        };
        if let Err(e) = file.flush() {
            return Err(cleanup(&self.tmp, e.into()));
        }
        let inner = file.into_inner().map_err(|e| {
            cleanup(
                &self.tmp,
                FormatError::Io(std::io::Error::other(e.to_string())),
            )
        })?;
        if let Err(e) = inner.sync_all() {
            return Err(cleanup(&self.tmp, e.into()));
        }
        drop(inner);
        if let Err(e) = ssdrec_faults::point("write.data") {
            return Err(cleanup(
                &self.tmp,
                FormatError::Io(std::io::Error::other(e.to_string())),
            ));
        }
        if let Err(e) = fs::rename(&self.tmp, &self.path) {
            return Err(cleanup(&self.tmp, e.into()));
        }
        Ok(ColumnarSummary {
            num_users: self.num_users,
            num_interactions: self.num_interactions,
            bytes,
        })
    }
}

impl Drop for ColumnarWriter {
    fn drop(&mut self) {
        // An abandoned writer (error path, panic) must not leave its temp
        // file behind; `finish` takes `self.file` so a completed writer
        // skips this.
        if self.file.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

struct Window {
    /// Byte offset of the window start within the ITEM payload.
    start: u64,
    buf: Vec<u8>,
}

/// Bounded-RAM reader for `.ssdc` files.
///
/// Holds the per-user offset/length indexes and the noise bitmap in RAM
/// (≈ 13 bytes/user + 1 bit/interaction); the item column stays on disk and
/// is read through one reusable window buffer. All validation — CRCs,
/// structure, id ranges — happens once in [`ColumnarReader::open`], so the
/// per-user accessors are infallible.
pub struct ColumnarReader {
    file: File,
    name: String,
    num_items: usize,
    num_interactions: u64,
    /// Per-user byte offsets into ITEM (`num_users + 1` entries).
    offs: Vec<u64>,
    /// Per-user interaction counts.
    lens: Vec<u32>,
    /// Per-user interaction prefix sums (`num_users + 1` entries) — bit
    /// offsets into the noise bitmap.
    prefix: Vec<u64>,
    noise: Option<Vec<u8>>,
    /// `(file offset, payload length)` of the TIME section, if present.
    time_span: Option<(u64, u64)>,
    item_file_off: u64,
    window: RefCell<Window>,
}

fn section_payload(file: &mut File, off: u64, len: u64) -> Result<Vec<u8>, FormatError> {
    let mut buf = vec![0u8; len as usize];
    file.seek(SeekFrom::Start(off))?;
    file.read_exact(&mut buf)
        .map_err(|_| FormatError::Truncated { what: "section" })?;
    Ok(buf)
}

fn verify_crc_streaming(
    file: &File,
    off: u64,
    len: u64,
    expect: u32,
    tag: &str,
) -> Result<(), FormatError> {
    let mut crc = Crc32::new();
    let mut chunk = vec![0u8; SCAN_CHUNK.min(len as usize).max(1)];
    let mut pos = 0u64;
    while pos < len {
        let n = chunk.len().min((len - pos) as usize);
        file.read_exact_at(&mut chunk[..n], off + pos)
            .map_err(|_| FormatError::Truncated { what: "section" })?;
        crc.update(&chunk[..n]);
        pos += n as u64;
    }
    if crc.finish() != expect {
        return Err(FormatError::SectionCrc {
            section: tag.to_string(),
        });
    }
    Ok(())
}

impl ColumnarReader {
    /// Open and fully validate a columnar file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        let mut file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();

        // Header.
        if file_len < HEADER_LEN {
            return Err(FormatError::Truncated { what: "header" });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(FormatError::BadVersion { found: version });
        }
        let flags = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if flags & !(FLAG_NOISE | FLAG_TIME) != 0 {
            return Err(FormatError::Corrupt {
                detail: format!("unknown flag bits 0x{flags:08x} in a v{VERSION} file"),
            });
        }
        let reserved = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if reserved != 0 {
            return Err(FormatError::Corrupt {
                detail: format!("reserved header field must be zero, found 0x{reserved:08x}"),
            });
        }

        // Footer: trailing magic, then count, then the section table.
        if file_len < HEADER_LEN + 12 {
            return Err(FormatError::Truncated { what: "footer" });
        }
        let mut tail = [0u8; 12];
        file.read_exact_at(&mut tail, file_len - 12)?;
        if &tail[8..12] != FOOTER_MAGIC {
            return Err(FormatError::BadFooter);
        }
        let count = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as usize;
        let fcrc = u32::from_le_bytes(tail[4..8].try_into().unwrap());
        let table_len = count
            .checked_mul(SECTION_ENTRY_LEN)
            .ok_or(FormatError::BadFooter)? as u64;
        if count == 0 || table_len + 12 + HEADER_LEN > file_len {
            return Err(FormatError::BadFooter);
        }
        let table_off = file_len - 12 - table_len;
        let mut table = vec![0u8; table_len as usize + 4]; // + count field
        file.read_exact_at(&mut table, table_off)?;
        if crc32(&table) != fcrc {
            return Err(FormatError::BadFooter);
        }

        let mut sections: Vec<([u8; 4], u64, u64, u32)> = Vec::with_capacity(count);
        for i in 0..count {
            let e = &table[i * SECTION_ENTRY_LEN..(i + 1) * SECTION_ENTRY_LEN];
            let tag: [u8; 4] = e[0..4].try_into().unwrap();
            let off = u64::from_le_bytes(e[4..12].try_into().unwrap());
            let len = u64::from_le_bytes(e[12..20].try_into().unwrap());
            let crc = u32::from_le_bytes(e[20..24].try_into().unwrap());
            if off < HEADER_LEN || off.checked_add(len).is_none_or(|end| end > table_off) {
                return Err(FormatError::BadFooter);
            }
            sections.push((tag, off, len, crc));
        }
        let find = |tag: &'static str| -> Result<(u64, u64, u32), FormatError> {
            sections
                .iter()
                .find(|(t, _, _, _)| t == tag.as_bytes())
                .map(|&(_, o, l, c)| (o, l, c))
                .ok_or(FormatError::MissingSection { section: tag })
        };

        // META.
        let (moff, mlen, mcrc) = find("META")?;
        let meta = section_payload(&mut file, moff, mlen)?;
        if crc32(&meta) != mcrc {
            return Err(FormatError::SectionCrc {
                section: "META".into(),
            });
        }
        if meta.len() < 4 {
            return Err(FormatError::Truncated { what: "META" });
        }
        let name_len = u32::from_le_bytes(meta[0..4].try_into().unwrap()) as usize;
        if meta.len() != 4 + name_len + 24 {
            return Err(FormatError::Corrupt {
                detail: "META length inconsistent".into(),
            });
        }
        let name = std::str::from_utf8(&meta[4..4 + name_len])
            .map_err(|_| FormatError::Corrupt {
                detail: "dataset name is not UTF-8".into(),
            })?
            .to_string();
        let rest = &meta[4 + name_len..];
        let num_users = u64::from_le_bytes(rest[0..8].try_into().unwrap()) as usize;
        let num_items = u64::from_le_bytes(rest[8..16].try_into().unwrap()) as usize;
        let num_interactions = u64::from_le_bytes(rest[16..24].try_into().unwrap());

        // LENS.
        let (loff, llen, lcrc) = find("LENS")?;
        let lens_raw = section_payload(&mut file, loff, llen)?;
        if crc32(&lens_raw) != lcrc {
            return Err(FormatError::SectionCrc {
                section: "LENS".into(),
            });
        }
        let mut lens = Vec::with_capacity(num_users);
        let mut prefix = Vec::with_capacity(num_users + 1);
        let mut pos = 0usize;
        let mut total = 0u64;
        prefix.push(0);
        for u in 0..num_users {
            let n = read_varint(&lens_raw, &mut pos).ok_or(FormatError::Corrupt {
                detail: format!("LENS truncated at user {u}"),
            })?;
            if n > u32::MAX as u64 {
                return Err(FormatError::Corrupt {
                    detail: format!("user {u} length {n} impossible"),
                });
            }
            lens.push(n as u32);
            total += n;
            prefix.push(total);
        }
        if pos != lens_raw.len() || total != num_interactions {
            return Err(FormatError::Corrupt {
                detail: "LENS inconsistent with META interaction count".into(),
            });
        }

        // OFFS.
        let (ooff, olen, ocrc) = find("OFFS")?;
        let offs_raw = section_payload(&mut file, ooff, olen)?;
        if crc32(&offs_raw) != ocrc {
            return Err(FormatError::SectionCrc {
                section: "OFFS".into(),
            });
        }
        let (item_off, item_len, item_crc) = find("ITEM")?;
        let mut offs = Vec::with_capacity(num_users + 1);
        let mut pos = 0usize;
        let mut cur = 0u64;
        for u in 0..=num_users {
            let d = read_varint(&offs_raw, &mut pos).ok_or(FormatError::Corrupt {
                detail: format!("OFFS truncated at user {u}"),
            })?;
            cur = if u == 0 { d } else { cur + d };
            offs.push(cur);
        }
        if pos != offs_raw.len() || offs[0] != 0 || *offs.last().unwrap() != item_len {
            return Err(FormatError::Corrupt {
                detail: "OFFS inconsistent with ITEM section".into(),
            });
        }

        // NOIS / TIME presence must match the header flags.
        let noise = if flags & FLAG_NOISE != 0 {
            let (noff, nlen, ncrc) = find("NOIS")?;
            let bits = section_payload(&mut file, noff, nlen)?;
            if crc32(&bits) != ncrc {
                return Err(FormatError::SectionCrc {
                    section: "NOIS".into(),
                });
            }
            if bits.len() as u64 != num_interactions.div_ceil(8) {
                return Err(FormatError::Corrupt {
                    detail: "NOIS bitmap length mismatch".into(),
                });
            }
            Some(bits)
        } else {
            None
        };
        let time_span = if flags & FLAG_TIME != 0 {
            let (toff, tlen, tcrc) = find("TIME")?;
            verify_crc_streaming(&file, toff, tlen, tcrc, "TIME")?;
            Some((toff, tlen))
        } else {
            None
        };

        // ITEM: stream the CRC and structurally validate every sequence in
        // one bounded-RAM pass, so the per-user accessors below can be
        // infallible.
        verify_crc_streaming(&file, item_off, item_len, item_crc, "ITEM")?;
        let reader = ColumnarReader {
            file,
            name,
            num_items,
            num_interactions,
            offs,
            lens,
            prefix,
            noise,
            time_span,
            item_file_off: item_off,
            window: RefCell::new(Window {
                start: u64::MAX,
                buf: Vec::new(),
            }),
        };
        reader.validate_items()?;
        Ok(reader)
    }

    fn validate_items(&self) -> Result<(), FormatError> {
        for u in 0..self.num_users() {
            let mut win = self.window.borrow_mut();
            let raw = self.user_window(&mut win, u);
            let mut pos = 0usize;
            let mut prev = 0i64;
            for t in 0..self.lens[u] as usize {
                let z = read_varint(raw, &mut pos).ok_or(FormatError::Corrupt {
                    detail: format!("ITEM truncated at user {u} position {t}"),
                })?;
                let it = prev + unzigzag(z);
                if it < 1 || it > self.num_items as i64 {
                    return Err(FormatError::Corrupt {
                        detail: format!(
                            "user {u} position {t}: item {it} outside 1..={}",
                            self.num_items
                        ),
                    });
                }
                prev = it;
            }
            if pos != raw.len() {
                return Err(FormatError::Corrupt {
                    detail: format!("user {u}: trailing bytes in item run"),
                });
            }
        }
        Ok(())
    }

    /// The raw varint bytes of user `u`'s sequence, refilling the reusable
    /// window on a miss. Sequential scans refill once per `WINDOW_LEN`
    /// bytes; the window grows only for a single run longer than it.
    fn user_window<'w>(&self, win: &'w mut Window, u: usize) -> &'w [u8] {
        let (start, end) = (self.offs[u], self.offs[u + 1]);
        let len = (end - start) as usize;
        let hit =
            win.start != u64::MAX && start >= win.start && end <= win.start + win.buf.len() as u64;
        if !hit {
            let want = WINDOW_LEN.max(len);
            let avail = (*self.offs.last().unwrap() - start) as usize;
            win.buf.resize(want.min(avail), 0);
            win.start = start;
            self.file
                .read_exact_at(&mut win.buf, self.item_file_off + start)
                .expect("ITEM pread within bounds checked at open");
        }
        let lo = (start - win.start) as usize;
        &win.buf[lo..lo + len]
    }

    /// Users in the file.
    pub fn num_users(&self) -> usize {
        self.lens.len()
    }

    /// Catalogue size (item ids are `1..=num_items`).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Total interactions.
    pub fn num_interactions(&self) -> u64 {
        self.num_interactions
    }

    /// Dataset name recorded in META.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether a noise-label column is present.
    pub fn has_noise(&self) -> bool {
        self.noise.is_some()
    }

    /// Whether a timestamp column is present.
    pub fn has_times(&self) -> bool {
        self.time_span.is_some()
    }

    /// Interaction count of user `u` (no I/O).
    pub fn seq_len(&self, u: usize) -> usize {
        self.lens[u] as usize
    }

    /// Decode user `u`'s item sequence into `out` (cleared first).
    pub fn read_seq(&self, u: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut win = self.window.borrow_mut();
        let raw = self.user_window(&mut win, u);
        let mut pos = 0usize;
        let mut prev = 0i64;
        out.reserve(self.lens[u] as usize);
        for _ in 0..self.lens[u] {
            let z = read_varint(raw, &mut pos).expect("validated at open");
            let it = prev + unzigzag(z);
            out.push(it as usize);
            prev = it;
        }
    }

    /// Decode user `u`'s noise labels into `out` (cleared; left empty when
    /// the file has no noise column).
    pub fn read_noise(&self, u: usize, out: &mut Vec<bool>) {
        out.clear();
        let Some(bits) = &self.noise else { return };
        let base = self.prefix[u];
        out.reserve(self.lens[u] as usize);
        for t in 0..self.lens[u] as u64 {
            let bit = base + t;
            out.push(bits[(bit / 8) as usize] >> (bit % 8) & 1 == 1);
        }
    }

    /// Decode the full timestamp column (present only when
    /// [`ColumnarReader::has_times`]); loads the column once, so this is the
    /// one accessor whose memory scales with interaction count.
    pub fn read_all_times(&self) -> Result<Vec<Vec<i64>>, FormatError> {
        let Some((off, len)) = self.time_span else {
            return Ok(Vec::new());
        };
        let mut raw = vec![0u8; len as usize];
        self.file
            .read_exact_at(&mut raw, off)
            .map_err(FormatError::Io)?;
        let mut pos = 0usize;
        let mut all = Vec::with_capacity(self.num_users());
        for u in 0..self.num_users() {
            let mut prev = 0i64;
            let mut ts = Vec::with_capacity(self.lens[u] as usize);
            for t in 0..self.lens[u] {
                let z = read_varint(&raw, &mut pos).ok_or(FormatError::Corrupt {
                    detail: format!("TIME truncated at user {u} position {t}"),
                })?;
                prev = prev.wrapping_add(unzigzag(z));
                ts.push(prev);
            }
            all.push(ts);
        }
        if pos != raw.len() {
            return Err(FormatError::Corrupt {
                detail: "trailing bytes in TIME section".into(),
            });
        }
        Ok(all)
    }

    /// Materialize the whole file as an in-RAM [`Dataset`].
    pub fn to_dataset(&self) -> Dataset {
        let mut sequences = Vec::with_capacity(self.num_users());
        let mut labels = self
            .has_noise()
            .then(|| Vec::with_capacity(self.num_users()));
        let mut seq = Vec::new();
        let mut nz = Vec::new();
        for u in 0..self.num_users() {
            self.read_seq(u, &mut seq);
            sequences.push(seq.clone());
            if let Some(l) = labels.as_mut() {
                self.read_noise(u, &mut nz);
                l.push(nz.clone());
            }
        }
        Dataset {
            name: self.name.clone(),
            num_users: self.num_users(),
            num_items: self.num_items,
            sequences,
            noise_labels: labels,
        }
    }
}

/// Encode an in-RAM [`Dataset`] to `path` atomically.
pub fn encode_dataset(
    ds: &Dataset,
    path: impl AsRef<Path>,
) -> Result<ColumnarSummary, FormatError> {
    let mut w = ColumnarWriter::create(
        path,
        &ds.name,
        ds.num_items,
        ds.noise_labels.is_some(),
        false,
    )?;
    for (u, seq) in ds.sequences.iter().enumerate() {
        let noise = ds.noise_labels.as_ref().map(|l| l[u].as_slice());
        w.push_user(seq, noise, None)?;
    }
    w.finish()
}
