//! Resumable training checkpoints: the full trainer state — parameter
//! values, Adam moments and step count, the RNG stream, epoch/patience
//! counters and the best-so-far snapshot — serialised to a self-describing
//! binary format so `--resume` continues **bit-identically** to an
//! uninterrupted run.
//!
//! Format `SSTC` v1 (little-endian):
//! ```text
//! magic   "SSTC" (4 bytes), version u32
//! next_epoch u32, since_best u32
//! adam_steps u64, rng_state u64×4
//! best_hr20 f64-bits u64, total_train_secs f64-bits u64
//! final_loss f32-bits u32
//! best_valid f64-bits u64 × 7      — hr5 hr10 hr20 ndcg5 ndcg10 ndcg20 mrr20
//! model_state: count u32, u64 × count
//! params: count u32, then per tensor:
//!   name_len u32, name bytes, ndim u32, dims u32×ndim,
//!   value f32×len, adam_m f32×len, adam_v f32×len
//! best_snapshot: count u32, then per tensor: ndim u32, dims u32×ndim,
//!   data f32×len
//! ```
//!
//! Writes are atomic (temp file + rename via
//! [`ssdrec_tensor::persist::atomic_write`], fault site `ckpt.save`): a
//! crash mid-save never replaces a good checkpoint with a torn one.
//! Loading is strict — tensor names and shapes must match the live model
//! exactly, and every failure names the offending tensor.

use std::io::{self, Read, Write};
use std::path::Path;

use ssdrec_metrics::MetricReport;
use ssdrec_tensor::persist::atomic_write;
use ssdrec_tensor::{ParamStore, Tensor};

use crate::model::RecModel;

const MAGIC: &[u8; 4] = b"SSTC";
const VERSION: u32 = 1;

/// When and where the trainer checkpoints, and whether it resumes.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Path of the training-state file.
    pub path: std::path::PathBuf,
    /// Save every `every` epochs (and always on stop). 0 is treated as 1.
    pub every: usize,
    /// If the state file exists, restore it and continue from `next_epoch`.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every epoch, without resuming.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every: 1,
            resume: false,
        }
    }
}

/// Everything the trainer needs to continue a run bit-identically.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// The epoch the resumed loop starts at (epochs completed so far).
    pub next_epoch: u32,
    /// Early-stopping counter: epochs since the best validation HR@20.
    pub since_best: u32,
    /// Adam update count (bias correction depends on it).
    pub adam_steps: u64,
    /// The trainer RNG's raw xoshiro256** state.
    pub rng_state: [u64; 4],
    /// Best validation HR@20 so far.
    pub best_hr20: f64,
    /// Accumulated training wall-clock seconds (reporting only; not part
    /// of the bit-identity contract).
    pub total_train_secs: f64,
    /// Last epoch's mean training loss.
    pub final_loss: f32,
    /// Validation metrics of the best epoch.
    pub best_valid: MetricReport,
    /// Opaque model-side state ([`RecModel::train_state`]).
    pub model_state: Vec<u64>,
    /// Per-parameter `(name, value, adam_m, adam_v)`.
    pub params: Vec<(String, Tensor, Tensor, Tensor)>,
    /// Parameter values of the best epoch (early-stopping restore target).
    pub best_snapshot: Vec<Tensor>,
}

impl TrainState {
    /// Capture the store side of the state (values + Adam moments) from a
    /// model. The caller fills in the scalar counters.
    pub fn capture_params<M: RecModel + ?Sized>(
        model: &M,
    ) -> Vec<(String, Tensor, Tensor, Tensor)> {
        let store = model.store();
        (0..store.num_tensors())
            .map(|i| {
                let p = ParamStore::param_ref_by_index(i);
                let (m, v) = store.moments(p);
                (
                    store.name(p).to_string(),
                    store.get(p).clone(),
                    m.clone(),
                    v.clone(),
                )
            })
            .collect()
    }

    /// Restore parameter values, Adam moments and model-side state into a
    /// freshly built model. Strict: names and shapes must match.
    pub fn apply_to<M: RecModel + ?Sized>(&self, model: &mut M) -> Result<(), String> {
        let store = model.store_mut();
        if self.params.len() != store.num_tensors() {
            return Err(format!(
                "checkpoint has {} tensors, model has {}",
                self.params.len(),
                store.num_tensors()
            ));
        }
        for (i, (name, value, m, v)) in self.params.iter().enumerate() {
            let p = ParamStore::param_ref_by_index(i);
            if store.name(p) != name {
                return Err(format!(
                    "tensor {i}: checkpoint name {name:?} vs model {:?}",
                    store.name(p)
                ));
            }
            if store.get(p).shape() != value.shape() {
                return Err(format!(
                    "tensor {i} ({name}): checkpoint shape {:?} vs model {:?}",
                    value.shape(),
                    store.get(p).shape()
                ));
            }
            *store.get_mut(p) = value.clone();
            store.set_moments(p, m.clone(), v.clone());
        }
        model.restore_train_state(&self.model_state);
        Ok(())
    }
}

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn w_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
    w_u32(w, t.ndim() as u32)?;
    for &d in t.shape() {
        w_u32(w, d as u32)?;
    }
    for &x in t.data() {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn r_tensor(r: &mut impl Read) -> io::Result<Tensor> {
    let ndim = r_u32(r)? as usize;
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(r_u32(r)? as usize);
    }
    let n: usize = shape.iter().product();
    let mut data = vec![0f32; n];
    for x in data.iter_mut() {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        *x = f32::from_le_bytes(b);
    }
    Ok(Tensor::new(data, &shape))
}

/// Atomically serialise a [`TrainState`] to `path` (fault site `ckpt.save`).
pub fn save_train_state(st: &TrainState, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path.as_ref(), "ckpt.save", |w| {
        w.write_all(MAGIC)?;
        w_u32(w, VERSION)?;
        w_u32(w, st.next_epoch)?;
        w_u32(w, st.since_best)?;
        w_u64(w, st.adam_steps)?;
        for &s in &st.rng_state {
            w_u64(w, s)?;
        }
        w_u64(w, st.best_hr20.to_bits())?;
        w_u64(w, st.total_train_secs.to_bits())?;
        w_u32(w, st.final_loss.to_bits())?;
        let bv = &st.best_valid;
        for m in [
            bv.hr5, bv.hr10, bv.hr20, bv.ndcg5, bv.ndcg10, bv.ndcg20, bv.mrr20,
        ] {
            w_u64(w, m.to_bits())?;
        }
        w_u32(w, st.model_state.len() as u32)?;
        for &s in &st.model_state {
            w_u64(w, s)?;
        }
        w_u32(w, st.params.len() as u32)?;
        for (name, value, m, v) in &st.params {
            w_u32(w, name.len() as u32)?;
            w.write_all(name.as_bytes())?;
            w_u32(w, value.ndim() as u32)?;
            for &d in value.shape() {
                w_u32(w, d as u32)?;
            }
            for t in [value, m, v] {
                for &x in t.data() {
                    w.write_all(&x.to_le_bytes())?;
                }
            }
        }
        w_u32(w, st.best_snapshot.len() as u32)?;
        for t in &st.best_snapshot {
            w_tensor(w, t)?;
        }
        Ok(())
    })
}

/// Load a [`TrainState`] from `path`. Validation against the live model
/// happens in [`TrainState::apply_to`].
pub fn load_train_state(path: impl AsRef<Path>) -> io::Result<TrainState> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(err("not an SSTC training checkpoint"));
    }
    let version = r_u32(&mut r)?;
    if version != VERSION {
        return Err(err(format!(
            "unsupported training-checkpoint version {version}"
        )));
    }
    let next_epoch = r_u32(&mut r)?;
    let since_best = r_u32(&mut r)?;
    let adam_steps = r_u64(&mut r)?;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r_u64(&mut r)?;
    }
    let best_hr20 = f64::from_bits(r_u64(&mut r)?);
    let total_train_secs = f64::from_bits(r_u64(&mut r)?);
    let final_loss = f32::from_bits(r_u32(&mut r)?);
    let mut bv = [0f64; 7];
    for m in &mut bv {
        *m = f64::from_bits(r_u64(&mut r)?);
    }
    let best_valid = MetricReport {
        hr5: bv[0],
        hr10: bv[1],
        hr20: bv[2],
        ndcg5: bv[3],
        ndcg10: bv[4],
        ndcg20: bv[5],
        mrr20: bv[6],
    };
    let n_state = r_u32(&mut r)? as usize;
    let mut model_state = Vec::with_capacity(n_state);
    for _ in 0..n_state {
        model_state.push(r_u64(&mut r)?);
    }
    let n_params = r_u32(&mut r)? as usize;
    let mut params = Vec::with_capacity(n_params);
    for i in 0..n_params {
        let named = |name: &str, e: io::Error| err(format!("tensor {i} ({name}): {e}"));
        let name_len = r_u32(&mut r).map_err(|e| named("<header>", e))? as usize;
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)
            .map_err(|e| named("<header>", e))?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| err(format!("tensor {i}: invalid name encoding")))?;
        let ndim = r_u32(&mut r).map_err(|e| named(&name, e))? as usize;
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(r_u32(&mut r).map_err(|e| named(&name, e))? as usize);
        }
        let n: usize = shape.iter().product();
        let read_t = |r: &mut dyn Read| -> io::Result<Tensor> {
            let mut data = vec![0f32; n];
            for x in data.iter_mut() {
                let mut b = [0u8; 4];
                r.read_exact(&mut b)?;
                *x = f32::from_le_bytes(b);
            }
            Ok(Tensor::new(data, &shape))
        };
        let value = read_t(&mut r).map_err(|e| named(&name, e))?;
        let m = read_t(&mut r).map_err(|e| named(&name, e))?;
        let v = read_t(&mut r).map_err(|e| named(&name, e))?;
        params.push((name, value, m, v));
    }
    let n_snap = r_u32(&mut r)? as usize;
    let mut best_snapshot = Vec::with_capacity(n_snap);
    for i in 0..n_snap {
        best_snapshot.push(r_tensor(&mut r).map_err(|e| err(format!("snapshot tensor {i}: {e}")))?);
    }
    Ok(TrainState {
        next_epoch,
        since_best,
        adam_steps,
        rng_state,
        best_hr20,
        total_train_secs,
        final_loss,
        best_valid,
        model_state,
        params,
        best_snapshot,
    })
}
