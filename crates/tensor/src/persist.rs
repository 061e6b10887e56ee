//! Parameter persistence: save/load a [`ParamStore`]'s values to a simple,
//! self-describing binary format (no external dependencies), and the
//! tensor-record codec it shares with the trainer's `.sstc` state files.
//!
//! Format (little-endian):
//! ```text
//! magic  "SSDT" (4 bytes)
//! version u32
//! count   u32                    — number of tensors
//! repeat count times, one record each:
//!   name_len u32, name bytes (UTF-8)
//!   ndim u32, dims u32×ndim
//!   data f32×len
//! ```
//!
//! Loading is strict: the target store must have the same tensor names,
//! order and shapes ([`match_store`]; it is a *checkpoint* format, not a
//! model format — the code that built the store defines the architecture).
//! [`RecordReader`] checks every count and length against the bytes left in
//! the file before it allocates anything from it, so a hostile or corrupt
//! file is a typed `Err`, never a multi-GiB allocation or a panic.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use ssdrec_base::atomic_file::atomic_write;

use crate::optim::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"SSDT";
const VERSION: u32 = 1;

/// Writes a tensor-record file: a magic and version header, then `u32` /
/// `u64` fields and tensor records, all little-endian.
pub struct RecordWriter<W: Write> {
    w: W,
}

impl<W: Write> RecordWriter<W> {
    /// Start a file of format `magic` at `version`.
    pub fn new(mut w: W, magic: &[u8; 4], version: u32) -> io::Result<Self> {
        w.write_all(magic)?;
        w.write_all(&version.to_le_bytes())?;
        Ok(RecordWriter { w })
    }

    /// One `u32` field.
    pub fn u32(&mut self, v: u32) -> io::Result<()> {
        self.w.write_all(&v.to_le_bytes())
    }

    /// One `u64` field.
    pub fn u64(&mut self, v: u64) -> io::Result<()> {
        self.w.write_all(&v.to_le_bytes())
    }

    /// One or more tensors of one shape: the rank and dims once, then each
    /// tensor's data.
    pub fn tensors(&mut self, tensors: &[&Tensor]) -> io::Result<()> {
        let shape = tensors[0].shape();
        self.u32(shape.len() as u32)?;
        for &d in shape {
            self.u32(d as u32)?;
        }
        for t in tensors {
            debug_assert_eq!(t.shape(), shape, "one record, one shape");
            for &x in t.data() {
                self.w.write_all(&x.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// A named record: the name's byte count and bytes, then
    /// [`RecordWriter::tensors`].
    pub fn record(&mut self, name: &str, tensors: &[&Tensor]) -> io::Result<()> {
        self.u32(name.len() as u32)?;
        self.w.write_all(name.as_bytes())?;
        self.tensors(tensors)
    }
}

/// Reads a file [`RecordWriter`] wrote. It tracks the bytes left in the
/// file and refuses any count or length they cannot hold before it
/// allocates from it; every refusal says "overruns".
pub struct RecordReader {
    r: BufReader<File>,
    left: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl RecordReader {
    /// Open `path` and check its magic and version; `kind` names the
    /// format in the errors (`"SSDT checkpoint"`).
    pub fn open(path: &Path, magic: &[u8; 4], version: u32, kind: &str) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        let mut r = RecordReader {
            r: BufReader::new(file),
            left,
        };
        if &r.array::<4>()? != magic {
            return Err(invalid(format!("not an {kind}")));
        }
        let found = r.u32()?;
        if found != version {
            return Err(invalid(format!("unsupported {kind} version {found}")));
        }
        Ok(r)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.r.read_exact(&mut b)?;
        self.left = self.left.saturating_sub(N as u64);
        Ok(b)
    }

    /// One `u32` field.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// One `u64` field.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Refuse `n` items of `item_bytes` each unless the rest of the file
    /// can hold them; `what` describes them in the error.
    fn fits(&self, n: u64, item_bytes: u64, what: impl FnOnce() -> String) -> io::Result<()> {
        match n.checked_mul(item_bytes) {
            Some(need) if need <= self.left => Ok(()),
            _ => Err(invalid(format!(
                "{} overruns the {} bytes left",
                what(),
                self.left
            ))),
        }
    }

    /// A `u32` count of items of at least `item_bytes` each, checked
    /// against the bytes left; `what` names it in the error (`"a parameter
    /// count"`).
    pub fn count(&mut self, item_bytes: u64, what: &str) -> io::Result<usize> {
        let n = self.u32()?;
        self.fits(n as u64, item_bytes, || format!("{what} of {n}"))?;
        Ok(n as usize)
    }

    /// `copies` tensors of one shape, as [`RecordWriter::tensors`] wrote
    /// them. The rank and the shape are checked before anything is
    /// allocated.
    pub fn tensors(&mut self, copies: usize) -> io::Result<Vec<Tensor>> {
        let ndim = self.u32()?;
        self.fits(ndim as u64, 4, || format!("a rank of {ndim} dims"))?;
        let shape = (0..ndim)
            .map(|_| Ok(self.u32()? as usize))
            .collect::<io::Result<Vec<usize>>>()?;
        let len = shape
            .iter()
            .try_fold(1u64, |n, &d| n.checked_mul(d as u64))
            .ok_or_else(|| invalid(format!("shape {shape:?} overflows")))?;
        self.fits(len, 4 * copies as u64, || format!("shape {shape:?}"))?;
        let mut tensors = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut data = vec![0f32; len as usize];
            for x in &mut data {
                *x = f32::from_le_bytes(self.array()?);
            }
            tensors.push(Tensor::new(data, &shape));
        }
        Ok(tensors)
    }

    /// Record `i`, as [`RecordWriter::record`] wrote it with `copies`
    /// tensors. Errors name the record.
    pub fn record(&mut self, i: usize, copies: usize) -> io::Result<(String, Vec<Tensor>)> {
        let named = |name: &str, e: io::Error| invalid(format!("tensor {i} ({name}): {e}"));
        let len = self.u32().map_err(|e| named("<header>", e))?;
        self.fits(len as u64, 1, || {
            format!("the name is {len} bytes: a name length that")
        })
        .map_err(|e| named("<header>", e))?;
        let mut bytes = vec![0u8; len as usize];
        self.r
            .read_exact(&mut bytes)
            .map_err(|e| named("<header>", e))?;
        self.left -= len as u64;
        let name = String::from_utf8(bytes)
            .map_err(|_| invalid(format!("tensor {i}: invalid name encoding")))?;
        let tensors = self.tensors(copies).map_err(|e| named(&name, e))?;
        Ok((name, tensors))
    }
}

/// Check that `records` — each tensor's `(name, shape)`, in file order —
/// describe `store` exactly: count, order, names and shapes. Both
/// checkpoint formats run it before they touch the store.
pub fn match_store<'a>(
    store: &ParamStore,
    records: impl ExactSizeIterator<Item = (&'a str, &'a [usize])>,
) -> Result<(), String> {
    if records.len() != store.num_tensors() {
        return Err(format!(
            "checkpoint has {} tensors, store has {}",
            records.len(),
            store.num_tensors()
        ));
    }
    for (i, (name, shape)) in records.enumerate() {
        let p = ParamStore::param_ref_by_index(i);
        if store.name(p) != name {
            return Err(format!(
                "tensor {i}: checkpoint name {name:?} vs store {:?}",
                store.name(p)
            ));
        }
        if store.get(p).shape() != shape {
            return Err(format!(
                "tensor {i} ({name}): checkpoint shape {shape:?} vs store {:?}",
                store.get(p).shape()
            ));
        }
    }
    Ok(())
}

/// Serialise every parameter of `store` to `path` (atomic, fault site
/// `persist.save`: a partially written checkpoint never replaces a good
/// one).
pub fn save_params(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path.as_ref(), "persist.save", |w| {
        let mut w = RecordWriter::new(w, MAGIC, VERSION)?;
        w.u32(store.num_tensors() as u32)?;
        for i in 0..store.num_tensors() {
            let p = ParamStore::param_ref_by_index(i);
            w.record(store.name(p), &[store.get(p)])?;
        }
        Ok(())
    })
}

/// Load a checkpoint into `store`. Names, order and shapes must match the
/// store exactly; optimizer moments are left untouched.
pub fn load_params(store: &mut ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let mut r = RecordReader::open(path.as_ref(), MAGIC, VERSION, "SSDT checkpoint")?;
    // A record is at least its name length and its rank.
    let count = r.count(8, "a tensor count")?;
    let records = (0..count)
        .map(|i| r.record(i, 1))
        .collect::<io::Result<Vec<_>>>()?;
    match_store(
        store,
        records.iter().map(|(n, t)| (n.as_str(), t[0].shape())),
    )
    .map_err(invalid)?;
    store.restore(records.into_iter().flat_map(|(_, t)| t).collect::<Vec<_>>());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_base::Rng;
    use ssdrec_testkit::TempDir;

    fn demo_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(42);
        store.add_xavier("layer.w", &[4, 3], &mut rng);
        store.add_zeros("layer.b", &[3]);
        store.add_ones("ln.gamma", &[3]);
        store
    }

    /// `<tag>.ssdt` in a fresh directory, removed when the guard drops.
    fn scratch(tag: &str) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("ssdrec-persist");
        let path = dir.join(format!("{tag}.ssdt"));
        (dir, path)
    }

    #[test]
    fn roundtrip_preserves_values() {
        let (_dir, path) = scratch("rt");

        let store = demo_store();
        save_params(&store, &path).unwrap();

        let mut other = demo_store();
        // Perturb before loading.
        other.get_mut(ParamStore::param_ref_by_index(0)).data_mut()[0] = 99.0;
        load_params(&mut other, &path).unwrap();
        assert_eq!(other.snapshot(), store.snapshot());
    }

    #[test]
    fn rejects_mismatched_architecture() {
        let (_dir, path) = scratch("mm");
        save_params(&demo_store(), &path).unwrap();

        let mut smaller = ParamStore::new();
        smaller.add_zeros("layer.w", &[4, 3]);
        assert!(
            load_params(&mut smaller, &path).is_err(),
            "tensor count mismatch accepted"
        );

        let mut renamed = ParamStore::new();
        let mut rng = Rng::seed(0);
        renamed.add_xavier("other.w", &[4, 3], &mut rng);
        renamed.add_zeros("layer.b", &[3]);
        renamed.add_ones("ln.gamma", &[3]);
        assert!(
            load_params(&mut renamed, &path).is_err(),
            "name mismatch accepted"
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let (_dir, path) = scratch("magic");
        save_params(&demo_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &bytes).unwrap();
        let e = load_params(&mut demo_store(), &path).unwrap_err();
        assert!(e.to_string().contains("not an SSDT checkpoint"), "{e}");
    }

    #[test]
    fn rejects_version_mismatch() {
        let (_dir, path) = scratch("ver");
        save_params(&demo_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let e = load_params(&mut demo_store(), &path).unwrap_err();
        assert!(e.to_string().contains("version 99"), "{e}");
    }

    #[test]
    fn truncated_file_error_names_the_tensor() {
        let (_dir, path) = scratch("trunc");
        save_params(&demo_store(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the very last tensor's data section.
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        let e = load_params(&mut demo_store(), &path).unwrap_err();
        assert!(e.to_string().contains("ln.gamma"), "error lacks name: {e}");
    }

    #[test]
    fn shape_mismatch_error_names_the_tensor() {
        let (_dir, path) = scratch("shape");
        save_params(&demo_store(), &path).unwrap();
        let mut reshaped = ParamStore::new();
        let mut rng = Rng::seed(1);
        reshaped.add_xavier("layer.w", &[2, 6], &mut rng); // same size, new shape
        reshaped.add_zeros("layer.b", &[3]);
        reshaped.add_ones("ln.gamma", &[3]);
        let e = load_params(&mut reshaped, &path).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("layer.w") && msg.contains("shape"),
            "error lacks context: {msg}"
        );
    }

    #[test]
    fn faulted_save_leaves_original_untouched() {
        use ssdrec_testkit::fault::FaultPlan;
        let (_dir, path) = scratch("atomic");
        let tmp = path.with_extension("ssdt.tmp");

        let store = demo_store();
        save_params(&store, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut changed = demo_store();
        changed
            .get_mut(ParamStore::param_ref_by_index(0))
            .data_mut()[0] = 7.0;
        {
            let _armed = FaultPlan::new().error("persist.save", 1).arm();
            let e = save_params(&changed, &path).unwrap_err();
            assert!(e.to_string().contains("persist.save"), "{e}");
        }
        // Original bytes intact, no temp file left behind.
        assert_eq!(std::fs::read(&path).unwrap(), good);
        assert!(!tmp.exists(), "temp file not cleaned up");

        // After disarm the save succeeds and replaces the file atomically.
        save_params(&changed, &path).unwrap();
        assert_ne!(std::fs::read(&path).unwrap(), good);
    }

    #[test]
    fn rejects_garbage_files() {
        let (_dir, path) = scratch("bad");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let mut store = demo_store();
        assert!(load_params(&mut store, &path).is_err());
    }
}
