//! Parameter persistence: save/load a [`ParamStore`]'s values to a simple,
//! self-describing binary format (no external dependencies).
//!
//! Format (little-endian):
//! ```text
//! magic  "SSDT" (4 bytes)
//! version u32
//! count   u32                    — number of tensors
//! repeat count times:
//!   name_len u32, name bytes (UTF-8)
//!   ndim u32, dims u32×ndim
//!   data f32×len
//! ```
//!
//! Loading is strict: the target store must have the same tensor names,
//! order and shapes (it is a *checkpoint* format, not a model format — the
//! code that built the store defines the architecture). The loader checks
//! every length field against the store before it allocates anything from
//! it, so a hostile or corrupt file is a typed `Err`, never a multi-GiB
//! allocation or a panic.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::optim::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"SSDT";
const VERSION: u32 = 1;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Atomically write a file: the payload goes to `<path>.tmp`, is flushed,
/// and only then renamed over `path`. A crash or injected fault at any point
/// (fault site `fault_site`, fired between flush and rename — the widest
/// window) leaves the original file untouched; the temp file is removed on
/// error.
pub fn atomic_write(
    path: &Path,
    fault_site: &str,
    write_fn: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    let result = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        write_fn(&mut w)?;
        w.flush()?;
        ssdrec_base::faults::point(fault_site)?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Serialise every parameter of `store` to `path` (atomic: temp file +
/// rename, so a partially written checkpoint never replaces a good one).
pub fn save_params(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path.as_ref(), "persist.save", |w| write_store(store, w))
}

fn write_store(store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, store.num_tensors() as u32)?;
    for i in 0..store.num_tensors() {
        let r = crate::optim::ParamStore::param_ref_by_index(i);
        let name = store.name(r);
        let t = store.get(r);
        write_u32(w, name.len() as u32)?;
        w.write_all(name.as_bytes())?;
        write_u32(w, t.ndim() as u32)?;
        for &d in t.shape() {
            write_u32(w, d as u32)?;
        }
        for &x in t.data() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Load a checkpoint into `store`. Names, order and shapes must match the
/// store exactly; optimizer moments are left untouched.
pub fn load_params(store: &mut ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(err("not an SSDT checkpoint"));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(err(format!("unsupported checkpoint version {version}")));
    }
    let count = read_u32(&mut r)? as usize;
    if count != store.num_tensors() {
        return Err(err(format!(
            "checkpoint has {count} tensors, store has {}",
            store.num_tensors()
        )));
    }
    let mut values = Vec::with_capacity(count);
    for i in 0..count {
        // Every failure from here on names the offending tensor so a bad
        // checkpoint can be diagnosed without a hex dump.
        let named = |name: &str, e: io::Error| err(format!("tensor {i} ({name}): {e}"));
        let pr = crate::optim::ParamStore::param_ref_by_index(i);
        let want_name = store.name(pr);
        let name_len = read_u32(&mut r).map_err(|e| named("<header>", e))? as usize;
        if name_len != want_name.len() {
            return Err(err(format!(
                "tensor {i}: checkpoint name is {name_len} bytes, store {want_name:?} is {}",
                want_name.len()
            )));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)
            .map_err(|e| named("<header>", e))?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| err(format!("tensor {i}: invalid name encoding")))?;
        if want_name != name {
            return Err(err(format!(
                "tensor {i}: checkpoint name {name:?} vs store {want_name:?}"
            )));
        }
        let ndim = read_u32(&mut r).map_err(|e| named(&name, e))? as usize;
        if ndim != store.get(pr).ndim() {
            return Err(err(format!(
                "tensor {i} ({name}): checkpoint shape has {ndim} dims vs store {:?}",
                store.get(pr).shape()
            )));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(read_u32(&mut r).map_err(|e| named(&name, e))? as usize);
        }
        if shape != store.get(pr).shape() {
            return Err(err(format!(
                "tensor {i} ({name}): checkpoint shape {shape:?} vs store {:?}",
                store.get(pr).shape()
            )));
        }
        let n: usize = shape.iter().product();
        let mut data = vec![0f32; n];
        for x in data.iter_mut() {
            let mut b = [0u8; 4];
            r.read_exact(&mut b).map_err(|e| named(&name, e))?;
            *x = f32::from_le_bytes(b);
        }
        values.push(Tensor::new(data, &shape));
    }
    store.restore(&values);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_base::Rng;

    fn demo_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed(42);
        store.add_xavier("layer.w", &[4, 3], &mut rng);
        store.add_zeros("layer.b", &[3]);
        store.add_ones("ln.gamma", &[3]);
        store
    }

    #[test]
    fn roundtrip_preserves_values() {
        let dir = std::env::temp_dir().join("ssdrec_persist_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");

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
        let dir = std::env::temp_dir().join("ssdrec_persist_mm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");
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
        let dir = std::env::temp_dir().join("ssdrec_persist_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");
        save_params(&demo_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &bytes).unwrap();
        let e = load_params(&mut demo_store(), &path).unwrap_err();
        assert!(e.to_string().contains("not an SSDT checkpoint"), "{e}");
    }

    #[test]
    fn rejects_version_mismatch() {
        let dir = std::env::temp_dir().join("ssdrec_persist_ver");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");
        save_params(&demo_store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let e = load_params(&mut demo_store(), &path).unwrap_err();
        assert!(e.to_string().contains("version 99"), "{e}");
    }

    #[test]
    fn truncated_file_error_names_the_tensor() {
        let dir = std::env::temp_dir().join("ssdrec_persist_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");
        save_params(&demo_store(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the very last tensor's data section.
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        let e = load_params(&mut demo_store(), &path).unwrap_err();
        assert!(e.to_string().contains("ln.gamma"), "error lacks name: {e}");
    }

    #[test]
    fn shape_mismatch_error_names_the_tensor() {
        let dir = std::env::temp_dir().join("ssdrec_persist_shape");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");
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
        let dir = std::env::temp_dir().join("ssdrec_persist_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ssdt");
        let tmp = dir.join("ckpt.ssdt.tmp");

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
        let dir = std::env::temp_dir().join("ssdrec_persist_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bin");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let mut store = demo_store();
        assert!(load_params(&mut store, &path).is_err());
    }
}
