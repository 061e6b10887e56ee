//! The row-parallel graph builder against the sort-and-merge builder it
//! replaced (`reference/`, kept verbatim): random small datasets — repeated
//! items, sequences of length 0 and 1, items nobody touches — under random
//! `GraphConfig`s, with every cap down to 0 and 1, must give identical CSR
//! bytes.

mod reference;

use ssdrec_data::Dataset;
use ssdrec_graph::{build_graph_from_store, Csr, GraphConfig, MultiRelationGraph};
use ssdrec_testkit::{property, Gen};

/// 1–12 users over 1–20 items; each sequence 0–12 long, drawn from a
/// random slice of the catalogue so that items repeat within a sequence
/// and some items are never interacted with.
fn arb_dataset() -> Gen<Dataset> {
    Gen::from_fn(|rng| {
        let users = rng.between(1, 12);
        let items = rng.between(1, 20);
        let sequences = (0..users)
            .map(|_| {
                let hot = rng.between(1, items);
                let len = rng.between(0, 12);
                (0..len).map(|_| rng.between(1, hot)).collect()
            })
            .collect();
        Dataset {
            name: "oracle".into(),
            num_users: users,
            num_items: items,
            sequences,
            noise_labels: None,
        }
    })
}

/// A cap: 0, 1, small, or unbounded.
fn cap(rng: &mut ssdrec_testkit::Rng) -> usize {
    match rng.below(4) {
        0 => rng.between(0, 1),
        1 | 2 => rng.between(2, 8),
        _ => usize::MAX,
    }
}

fn arb_config() -> Gen<GraphConfig> {
    Gen::from_fn(|rng| GraphConfig {
        item_fewshot_ratio: rng.uniform_f64(0.0, 1.0),
        user_fewshot_ratio: rng.uniform_f64(0.0, 1.0),
        max_neighbors: cap(rng),
        max_transition_distance: cap(rng),
        max_context_items: cap(rng),
        max_item_users: cap(rng),
    })
}

/// Every structural and numeric bit of a CSR.
fn csr_bits(csr: &Csr) -> Vec<(usize, u32)> {
    (0..csr.num_nodes())
        .flat_map(|i| {
            let row = csr.neighbors(i);
            std::iter::once((row.len(), 0)).chain(row.iter().map(|&(j, w)| (j, w.to_bits())))
        })
        .collect()
}

fn assert_same_graph(got: &MultiRelationGraph, want: &MultiRelationGraph) {
    assert_eq!(got.num_users, want.num_users);
    assert_eq!(got.num_items, want.num_items);
    assert_eq!(got.item_popular, want.item_popular, "item_popular");
    for (name, g, w) in [
        ("user_item", &got.user_item, &want.user_item),
        ("item_user", &got.item_user, &want.item_user),
        ("trans_out", &got.trans_out, &want.trans_out),
        ("trans_in", &got.trans_in, &want.trans_in),
        ("incompatible", &got.incompatible, &want.incompatible),
        ("similar", &got.similar, &want.similar),
        ("dissimilar", &got.dissimilar, &want.dissimilar),
    ] {
        assert_eq!(
            csr_bits(g),
            csr_bits(w),
            "{name} differs from the reference"
        );
    }
}

property! {
    cases = 256;

    /// Identical CSR bytes on arbitrary small inputs and configurations.
    fn row_parallel_build_matches_the_reference(ds in arb_dataset(), cfg in arb_config()) {
        let got = build_graph_from_store(&ds, &cfg);
        let want = reference::build_graph_from_store(&ds, &cfg);
        assert_same_graph(&got, &want);
    }

    /// The same at the default configuration, where no cap binds.
    fn row_parallel_build_matches_the_reference_uncapped(ds in arb_dataset()) {
        let cfg = GraphConfig::default();
        let got = build_graph_from_store(&ds, &cfg);
        let want = reference::build_graph_from_store(&ds, &cfg);
        assert_same_graph(&got, &want);
    }
}
