//! Property test: an SSTC training checkpoint round-trips byte-identically
//! — save → load → apply to a *fresh* model → save again produces the same
//! bytes — for every backbone, including the Adam moment tensors populated
//! by real optimisation steps.

use ssdrec_data::{prepare, Split, SyntheticConfig};
use ssdrec_models::checkpoint::{load_train_state, save_train_state, TrainState};
use ssdrec_models::{fit, BackboneKind, CheckpointConfig, SeqRec, TrainConfig, TrainOptions};
use ssdrec_testkit::{gens, property, scratch_path};

const KINDS: [BackboneKind; 6] = [
    BackboneKind::Gru4Rec,
    BackboneKind::Narm,
    BackboneKind::Stamp,
    BackboneKind::Caser,
    BackboneKind::SasRec,
    BackboneKind::Bert4Rec,
];

fn tiny_split() -> (usize, Split) {
    let ds = SyntheticConfig::beauty()
        .scaled(0.05)
        .with_seed(3)
        .generate();
    let (filtered, split) = prepare(&ds, 20, 2);
    (filtered.num_items, split)
}

/// Train one epoch with checkpointing so the state file carries real Adam
/// moments and a real RNG position, then assert save→load→save identity.
fn assert_roundtrip(kind: BackboneKind, seed: u64) {
    let dir = scratch_path(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/ckpt-roundtrip"),
        &format!("{kind:?}-{seed}"),
    );
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.sstc");

    let (num_items, split) = tiny_split();
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        seed,
        ..TrainConfig::default()
    };
    let mut model = SeqRec::new(kind, num_items, 8, 20, seed);
    let ckpt = CheckpointConfig::new(&path);
    let opts = TrainOptions::checkpointed(&ckpt);
    fit(&mut model, &(&split).into(), &cfg, &opts).unwrap();

    let bytes1 = std::fs::read(&path).unwrap();
    let st = load_train_state(&path).unwrap();

    // Moments must be non-trivial or the property is vacuous.
    assert!(
        st.params
            .iter()
            .any(|(_, _, m, _)| m.data().iter().any(|&x| x != 0.0)),
        "{kind:?}: Adam first moments all zero after training"
    );

    // Apply to a model built from a *different* init seed: every value must
    // come from the checkpoint, not survive from initialisation.
    let mut fresh = SeqRec::new(kind, num_items, 8, 20, seed.wrapping_add(999));
    st.apply_to(&mut fresh).unwrap();
    let st2 = TrainState {
        params: TrainState::capture_params(&fresh),
        model_state: vec![],
        ..st
    };
    let path2 = dir.join("state2.sstc");
    save_train_state(&st2, &path2).unwrap();
    let bytes2 = std::fs::read(&path2).unwrap();
    assert_eq!(
        bytes1, bytes2,
        "{kind:?}: SSTC bytes changed across save→load→save"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

property! {
    cases = 8;
    fn sstc_roundtrips_byte_identically(
        kind_i in gens::usizes(0, 6),
        seed in gens::usizes(1, 64)
    ) {
        assert_roundtrip(KINDS[kind_i], seed as u64);
    }
}

/// Every backbone at least once (the property's random draw may not cover
/// all six in 8 cases).
#[test]
fn sstc_roundtrips_for_every_backbone() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        assert_roundtrip(kind, 40 + i as u64);
    }
}
