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
//! (`ssdrec_base::bytes::crc32`). The encoder is a pure function of its input:
//! bytes are identical across runs, hosts, and thread counts.
//!
//! Writes are atomic ([`ssdrec_base::atomic_file`]): everything goes to
//! `<path>.tmp`, is flushed and fsynced, passes the `write.data` fault site,
//! and only then is renamed over `path` — a crash or injected fault can
//! never leave a torn `.ssdc`.
//!
//! [`ColumnarReader::open`] verifies the header, the footer table, and every
//! section CRC (large sections are scanned in bounded chunks), and
//! structurally validates the whole item column once — after a successful
//! open, per-user reads are infallible and served through a small reusable
//! window buffer (`pread`, no full materialization). Bounds are enforced
//! there, through `ssdrec_base::bytes`: the footer count by the file,
//! META's user count by LENS (at least a byte a user), its item count by
//! [`MAX_CATALOG`] (which the writer holds to as well), and every field by
//! its section, so a forged count is a typed error before any allocation.

use std::cell::RefCell;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use ssdrec_base::atomic_file::AtomicFile;
use ssdrec_base::bytes::{bounded, crc32, read_varint, unzigzag, zigzag, Crc32, Cursor, Put};

use crate::format::{FormatError, MAX_CATALOG};
use crate::interaction::Dataset;

const MAGIC: &[u8; 4] = b"SSDC";
const FOOTER_MAGIC: &[u8; 4] = b"CDSS";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
const FLAG_NOISE: u32 = 1;
const FLAG_TIME: u32 = 1 << 1;
/// Bytes per footer-table entry: tag + offset + len + crc.
const SECTION_ENTRY_LEN: u64 = 4 + 8 + 8 + 4;
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
/// independent of the dataset's interaction count. A writer dropped before
/// [`ColumnarWriter::finish`] deletes its temp file.
pub struct ColumnarWriter {
    file: AtomicFile,
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
        if num_items > MAX_CATALOG {
            return Err(FormatError::CatalogTooLarge(num_items as u64));
        }
        let mut file = AtomicFile::create(path)?;
        let flags = (FLAG_NOISE * has_noise as u32) | (FLAG_TIME * has_times as u32);
        let mut header = MAGIC.to_vec();
        for field in [VERSION, flags, 0] {
            header.put_u32(field);
        }
        file.write_all(&header)?;
        let mut offs = Vec::new();
        offs.put_varint(0); // first offset is always 0
        Ok(ColumnarWriter {
            file,
            name: name.to_string(),
            num_items,
            has_noise,
            has_times,
            num_users: 0,
            num_interactions: 0,
            item_bytes: 0,
            item_crc: Crc32::default(),
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
            self.scratch.put_varint(zigzag(it as i64 - prev));
            prev = it as i64;
        }
        self.item_crc.update(&self.scratch);
        self.item_bytes += self.scratch.len() as u64;
        self.file.write_all(&self.scratch)?;

        self.lens.put_varint(seq.len() as u64);
        self.offs.put_varint(self.scratch.len() as u64);
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
                self.times.put_varint(zigzag(t.wrapping_sub(prev)));
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
        let mut meta = Vec::new();
        meta.put_name(&self.name);
        meta.put_u64(self.num_users as u64);
        meta.put_u64(self.num_items as u64);
        meta.put_u64(self.num_interactions);

        // Section table: ITEM first (streamed behind the header), then the
        // buffered index columns in a fixed order.
        let mut table = vec![(b"ITEM", HEADER_LEN, self.item_bytes, self.item_crc.finish())];
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
            self.file.write_all(payload)?;
            table.push((tag, cursor, payload.len() as u64, crc32(payload)));
            cursor += payload.len() as u64;
        }

        let mut footer = Vec::new();
        for &(tag, off, len, crc) in &table {
            footer.extend_from_slice(tag);
            footer.put_u64(off);
            footer.put_u64(len);
            footer.put_u32(crc);
        }
        footer.put_u32(table.len() as u32);
        let fcrc = crc32(&footer);
        footer.put_u32(fcrc);
        footer.extend_from_slice(FOOTER_MAGIC);
        self.file.write_all(&footer)?;
        let bytes = cursor + footer.len() as u64;
        self.file.commit("write.data")?;
        Ok(ColumnarSummary {
            num_users: self.num_users,
            num_interactions: self.num_interactions,
            bytes,
        })
    }
}

#[derive(Default)]
struct Window {
    /// Byte offset of the window start within the ITEM payload (an empty
    /// window holds no run but an empty one).
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

fn corrupt(detail: impl Into<String>) -> FormatError {
    FormatError::Corrupt(detail.into())
}

/// Section `tag` at `(offset, length, crc)`, its CRC checked in bounded
/// chunks; its bytes are kept only when `keep` (the index sections, not
/// ITEM or TIME).
fn checked_section(
    file: &File,
    (off, len, crc): (u64, u64, u32),
    tag: &'static str,
    keep: bool,
) -> Result<Vec<u8>, FormatError> {
    let mut sum = Crc32::default();
    let mut kept = Vec::new();
    let mut chunk = vec![0u8; SCAN_CHUNK.min(len as usize)];
    let mut pos = 0u64;
    while pos < len {
        let n = chunk.len().min((len - pos) as usize);
        file.read_exact_at(&mut chunk[..n], off + pos)?;
        sum.update(&chunk[..n]);
        if keep {
            kept.extend_from_slice(&chunk[..n]);
        }
        pos += n as u64;
    }
    if sum.finish() != crc {
        return Err(FormatError::SectionCrc(tag));
    }
    Ok(kept)
}

impl ColumnarReader {
    /// Open and fully validate a columnar file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        let file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        bounded(HEADER_LEN + 12, 1, file_len, || {
            "a header and footer".into()
        })?;

        // Header.
        let mut head = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut head, 0)?;
        let mut h = Cursor::new(&head);
        if &h.array::<4>()? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let (version, flags, reserved) = (h.u32()?, h.u32()?, h.u32()?);
        if version != VERSION {
            return Err(FormatError::BadVersion(version));
        }
        if flags & !(FLAG_NOISE | FLAG_TIME) != 0 || reserved != 0 {
            return Err(corrupt(format!(
                "flags 0x{flags:08x} and reserved 0x{reserved:08x} in a v{VERSION} header"
            )));
        }

        // Footer: the section table, then count, footer CRC and magic. Every
        // table entry sits between the header and those 12 bytes.
        let mut tail = [0u8; 12];
        file.read_exact_at(&mut tail, file_len - 12)?;
        let mut t = Cursor::new(&tail);
        let (count, fcrc) = (t.u32()?, t.u32()?);
        if &t.array::<4>()? != FOOTER_MAGIC {
            return Err(FormatError::BadFooter);
        }
        let count = bounded(
            count as u64,
            SECTION_ENTRY_LEN,
            file_len - 12 - HEADER_LEN,
            || format!("a footer count of {count} sections"),
        )?;
        let table_len = count as u64 * SECTION_ENTRY_LEN;
        let table_off = file_len - 12 - table_len;
        let mut table = vec![0u8; table_len as usize + 4]; // + count field
        file.read_exact_at(&mut table, table_off)?;
        if count == 0 || crc32(&table) != fcrc {
            return Err(FormatError::BadFooter);
        }
        let mut t = Cursor::new(&table);
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let (tag, off, len, crc) = (t.array::<4>()?, t.u64()?, t.u64()?, t.u32()?);
            if off < HEADER_LEN || off.checked_add(len).is_none_or(|end| end > table_off) {
                return Err(FormatError::BadFooter);
            }
            sections.push((tag, (off, len, crc)));
        }
        let find = |tag: &'static str| {
            let found = sections.iter().find(|(t, _)| t == tag.as_bytes());
            found.map(|s| s.1).ok_or(FormatError::MissingSection(tag))
        };
        let section = |tag, keep| checked_section(&file, find(tag)?, tag, keep);

        let meta = section("META", true)?;
        let mut m = Cursor::new(&meta);
        let name = std::str::from_utf8(m.name()?)
            .map_err(|_| corrupt("dataset name is not UTF-8"))?
            .to_string();
        let (num_users, num_items, num_interactions) = (m.u64()?, m.u64()?, m.u64()?);
        if m.left() != 0 {
            return Err(corrupt("META length inconsistent"));
        }
        if num_items > MAX_CATALOG as u64 {
            return Err(FormatError::CatalogTooLarge(num_items));
        }

        // LENS: every user takes at least one byte of it.
        let lens_raw = section("LENS", true)?;
        let mut c = Cursor::new(&lens_raw);
        let num_users = c.count(num_users, 1, || format!("a user count of {num_users}"))?;
        let mut lens = Vec::with_capacity(num_users);
        let mut prefix = Vec::with_capacity(num_users + 1);
        let mut total = 0u64;
        prefix.push(0);
        for u in 0..num_users {
            let n = c.varint()?;
            let n =
                u32::try_from(n).map_err(|_| corrupt(format!("user {u} length {n} impossible")))?;
            lens.push(n);
            total += n as u64;
            prefix.push(total);
        }
        if c.left() != 0 || total != num_interactions {
            return Err(corrupt("LENS inconsistent with META interaction count"));
        }

        // OFFS: a start offset per user and the end, non-decreasing, so
        // ending at ITEM's length bounds every one of them.
        let offs_raw = section("OFFS", true)?;
        let (item_off, item_len, _) = find("ITEM")?;
        let mut c = Cursor::new(&offs_raw);
        let mut offs = Vec::with_capacity(num_users + 1);
        let mut cur = 0u64;
        for _ in 0..=num_users {
            cur = cur.saturating_add(c.varint()?);
            offs.push(cur);
        }
        if c.left() != 0 || offs[0] != 0 || cur != item_len {
            return Err(corrupt("OFFS inconsistent with ITEM section"));
        }

        // NOIS / TIME presence must match the header flags.
        let noise = if flags & FLAG_NOISE != 0 {
            let bits = section("NOIS", true)?;
            if bits.len() as u64 != num_interactions.div_ceil(8) {
                return Err(corrupt("NOIS bitmap length mismatch"));
            }
            Some(bits)
        } else {
            None
        };
        let time_span = if flags & FLAG_TIME != 0 {
            section("TIME", false)?;
            let (off, len, _) = find("TIME")?;
            Some((off, len))
        } else {
            None
        };

        // ITEM: stream the CRC and structurally validate every sequence in
        // one bounded-RAM pass, so the per-user accessors below can be
        // infallible.
        section("ITEM", false)?;
        let reader = ColumnarReader {
            file,
            name,
            num_items: num_items as usize,
            num_interactions,
            offs,
            lens,
            prefix,
            noise,
            time_span,
            item_file_off: item_off,
            window: RefCell::default(),
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
                let z = read_varint(raw, &mut pos)
                    .ok_or_else(|| corrupt(format!("ITEM truncated at user {u} position {t}")))?;
                let (it, n) = (prev.wrapping_add(unzigzag(z)), self.num_items);
                if it < 1 || it > n as i64 {
                    return Err(corrupt(format!(
                        "user {u} position {t}: item {it} outside 1..={n}"
                    )));
                }
                prev = it;
            }
            if pos != raw.len() {
                return Err(corrupt(format!("user {u}: trailing bytes in item run")));
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
        if start < win.start || end > win.start + win.buf.len() as u64 {
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
        let mut c = Cursor::new(&raw);
        let mut all = Vec::with_capacity(self.num_users());
        for u in 0..self.num_users() {
            let mut prev = 0i64;
            let mut ts = Vec::with_capacity(self.lens[u] as usize);
            for _ in 0..self.lens[u] {
                prev = prev.wrapping_add(unzigzag(c.varint()?));
                ts.push(prev);
            }
            all.push(ts);
        }
        if c.left() != 0 {
            return Err(corrupt("trailing bytes in TIME section"));
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
