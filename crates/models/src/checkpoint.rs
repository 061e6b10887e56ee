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
//! The parameter and snapshot tensors are `.ssdt`'s records
//! ([`ssdrec_tensor::persist::put_tensors`]), and one record layer reads
//! both formats. Writes are atomic (temp file, fsync, rename via
//! [`ssdrec_base::atomic_file`], fault site `ckpt.save`): a crash mid-save
//! never replaces a good checkpoint with a torn one. Loading is strict —
//! tensor names and shapes must match the live model exactly
//! ([`ssdrec_tensor::persist::match_store`]), and every failure names the
//! offending tensor. It is also hostile-input safe: the file is read whole
//! and decoded with `ssdrec_base::bytes`' cursor, which checks every count,
//! length and shape against the bytes left before anything is allocated
//! from it, so a corrupt or truncated file gives a typed `io::Error`, never
//! a panic or a runaway allocation.

use std::io::{self, Write};
use std::path::Path;

use ssdrec_base::atomic_file::atomic_write;
use ssdrec_base::bytes::Put;
use ssdrec_metrics::MetricReport;
use ssdrec_tensor::persist::{
    invalid, match_store, open_records, put_tensors, read_record, read_tensors, record_file,
};
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

    /// Move parameter values, Adam moments and model-side state into a
    /// freshly built model, and hand back the early-stopping snapshot (the
    /// trainer's, not the model's). Strict: names and shapes must match, the
    /// snapshot must fit the same store, and the model must accept the state
    /// words; a refused state changes nothing.
    pub fn apply_to<M: RecModel + ?Sized>(self, model: &mut M) -> Result<Vec<Tensor>, String> {
        let store = model.store();
        // The snapshot is unnamed: it takes the store's names.
        let snapshot = self.best_snapshot.iter().enumerate();
        let name = |i| store.name(ParamStore::param_ref_by_index(i));
        match_store(store, snapshot.map(|(i, t)| (name(i), t.shape())))
            .map_err(|e| format!("snapshot: {e}"))?;
        self.check_and_restore(model)?;
        let store = model.store_mut();
        for (i, (_, value, m, v)) in self.params.into_iter().enumerate() {
            let p = ParamStore::param_ref_by_index(i);
            *store.get_mut(p) = value;
            store.set_moments(p, m, v);
        }
        Ok(self.best_snapshot)
    }

    /// A warm start: copy the parameter values, Adam moments and
    /// model-side state into `model`, which keeps its own buffers. The
    /// snapshot is not read. Checks as [`TrainState::apply_to`].
    pub fn warm_start<M: RecModel + ?Sized>(&self, model: &mut M) -> Result<(), String> {
        self.check_and_restore(model)?;
        let store = model.store_mut();
        for (i, (_, value, m, v)) in self.params.iter().enumerate() {
            let p = ParamStore::param_ref_by_index(i);
            store.get_mut(p).data_mut().copy_from_slice(value.data());
            store.set_moments(p, m.clone(), v.clone());
        }
        Ok(())
    }

    /// Check the parameters' names and shapes against `model`'s store, then
    /// hand it the model-side state: the last check and the first write,
    /// so a refused state leaves the model untouched.
    fn check_and_restore<M: RecModel + ?Sized>(&self, model: &mut M) -> Result<(), String> {
        match_store(
            model.store(),
            self.params.iter().map(|(n, v, ..)| (n.as_str(), v.shape())),
        )?;
        model.restore_train_state(&self.model_state)
    }
}

/// Atomically serialise a [`TrainState`] to `path` (fault site `ckpt.save`).
pub fn save_train_state(st: &TrainState, path: impl AsRef<Path>) -> io::Result<()> {
    let params = st.params.iter().map(|(n, v, m, a)| (n.as_str(), [v, m, a]));
    write_state(st, params, &st.best_snapshot, path.as_ref())
}

/// The file [`save_train_state`] writes for `st` with `model`'s live
/// parameters and Adam moments and `snapshot` in place of `st.params` and
/// `st.best_snapshot` (which are not read): the trainer's checkpoint,
/// written from what it borrows instead of from a captured copy.
pub fn save_live_state<M: RecModel + ?Sized>(
    st: &TrainState,
    model: &M,
    snapshot: &[Tensor],
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let store = model.store();
    let params = (0..store.num_tensors()).map(|i| {
        let p = ParamStore::param_ref_by_index(i);
        let (m, v) = store.moments(p);
        (store.name(p), [store.get(p), m, v])
    });
    write_state(st, params, snapshot, path.as_ref())
}

/// The `.sstc` encoder: `st`'s counters, then `params`, then `snapshot`.
fn write_state<'a>(
    st: &TrainState,
    params: impl ExactSizeIterator<Item = (&'a str, [&'a Tensor; 3])>,
    snapshot: &[Tensor],
    path: &Path,
) -> io::Result<()> {
    let mut w = record_file(MAGIC, VERSION);
    w.put_u32(st.next_epoch);
    w.put_u32(st.since_best);
    w.put_u64(st.adam_steps);
    for &s in &st.rng_state {
        w.put_u64(s);
    }
    w.put_u64(st.best_hr20.to_bits());
    w.put_u64(st.total_train_secs.to_bits());
    w.put_u32(st.final_loss.to_bits());
    let bv = &st.best_valid;
    for m in [
        bv.hr5, bv.hr10, bv.hr20, bv.ndcg5, bv.ndcg10, bv.ndcg20, bv.mrr20,
    ] {
        w.put_u64(m.to_bits());
    }
    w.put_u32(st.model_state.len() as u32);
    for &s in &st.model_state {
        w.put_u64(s);
    }
    w.put_u32(params.len() as u32);
    for (name, tensors) in params {
        w.put_name(name);
        put_tensors(&mut w, &tensors);
    }
    w.put_u32(snapshot.len() as u32);
    for t in snapshot {
        put_tensors(&mut w, &[t]);
    }
    atomic_write(path, "ckpt.save", |f| f.write_all(&w))
}

/// Load a [`TrainState`] from `path`. Validation against the live model
/// happens in [`TrainState::apply_to`].
pub fn load_train_state(path: impl AsRef<Path>) -> io::Result<TrainState> {
    let bytes = std::fs::read(path)?;
    let mut r = open_records(&bytes, MAGIC, VERSION, "SSTC training checkpoint")?;
    let next_epoch = r.u32()?;
    let since_best = r.u32()?;
    let adam_steps = r.u64()?;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64()?;
    }
    let best_hr20 = f64::from_bits(r.u64()?);
    let total_train_secs = f64::from_bits(r.u64()?);
    let final_loss = f32::from_bits(r.u32()?);
    let mut bv = [0f64; 7];
    for m in &mut bv {
        *m = f64::from_bits(r.u64()?);
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
    let n_state = r.u32_count(8, "a model state")?;
    let model_state = (0..n_state).map(|_| r.u64()).collect::<Result<_, _>>()?;
    // A parameter is at least its name length and its rank.
    let n_params = r.u32_count(8, "a parameter count")?;
    let mut params = Vec::with_capacity(n_params);
    for i in 0..n_params {
        // The value and its two Adam moments.
        let (name, t) = read_record(&mut r, i, 3)?;
        let [value, m, v] = <[Tensor; 3]>::try_from(t).expect("three copies");
        params.push((name, value, m, v));
    }
    // A snapshot tensor is at least its rank.
    let n_snap = r.u32_count(4, "a snapshot count")?;
    let mut best_snapshot = Vec::with_capacity(n_snap);
    for i in 0..n_snap {
        let mut snap =
            read_tensors(&mut r, 1).map_err(|e| invalid(format!("snapshot tensor {i}: {e}")))?;
        best_snapshot.extend(snap.pop());
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
