//! Regression pins for the multi-relation graph builder.
//!
//! The first eight checksums were captured from the original
//! `HashMap`-of-edges builder *before* it was rewritten into counting passes
//! over a [`ssdrec_graph::build`] store; the corpus-scale ones, from that
//! sort-and-merge builder before it was rewritten into row-parallel passes.
//! Any builder change that shifts a single neighbour id, a single weight
//! bit, or a popularity flag on any of these fixtures fails this test — the
//! stage-1 relation encoder (and hence every trained checkpoint in the
//! workspace) inherits all of its low bits from these CSRs.

use ssdrec_data::{Dataset, SyntheticConfig};
use ssdrec_graph::{build_graph, Csr, GraphConfig, MultiRelationGraph};

/// FNV-1a over every structural and numeric byte of a CSR.
fn hash_csr(h: &mut u64, csr: &Csr) {
    fnv(h, csr.num_nodes() as u64);
    for i in 0..csr.num_nodes() {
        let row = csr.neighbors(i);
        fnv(h, row.len() as u64);
        for &(j, w) in row {
            fnv(h, j as u64);
            fnv(h, w.to_bits() as u64);
        }
    }
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn hash_graph(g: &MultiRelationGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, g.num_users as u64);
    fnv(&mut h, g.num_items as u64);
    for csr in [
        &g.user_item,
        &g.item_user,
        &g.trans_out,
        &g.trans_in,
        &g.incompatible,
        &g.similar,
        &g.dissimilar,
    ] {
        hash_csr(&mut h, csr);
    }
    for &p in &g.item_popular {
        fnv(&mut h, p as u64);
    }
    h
}

fn toy() -> Dataset {
    Dataset {
        name: "toy".into(),
        num_users: 4,
        num_items: 6,
        sequences: vec![vec![1, 2, 3], vec![1, 2, 4], vec![5, 2, 3], vec![6, 1, 2]],
        noise_labels: None,
    }
}

/// `(fixture, cfg, pinned hash)` — pinned from the pre-rewrite builder.
fn fixtures() -> Vec<(String, Dataset, GraphConfig, u64)> {
    let default = GraphConfig::default();
    let capped = GraphConfig {
        max_neighbors: 5,
        ..GraphConfig::default()
    };
    let short_hop = GraphConfig {
        max_transition_distance: 2,
        ..GraphConfig::default()
    };
    vec![
        ("toy".into(), toy(), default.clone(), 0xbea41d3d275af6ba),
        (
            "beauty_0.2".into(),
            SyntheticConfig::beauty().scaled(0.2).generate(),
            default.clone(),
            0xbe3c36000955c632,
        ),
        (
            "sports_0.2".into(),
            SyntheticConfig::sports().scaled(0.2).generate(),
            default.clone(),
            0x32c636e2e9acde68,
        ),
        (
            "yelp_0.2".into(),
            SyntheticConfig::yelp().scaled(0.2).generate(),
            default.clone(),
            0x685117bcb3ebf8e9,
        ),
        (
            "ml100k_0.2".into(),
            SyntheticConfig::ml100k().scaled(0.2).generate(),
            default.clone(),
            0xefd06c9ee720c0ae,
        ),
        (
            "ml1m_0.1".into(),
            SyntheticConfig::ml1m().scaled(0.1).generate(),
            default,
            0xcc88011bf260ba14,
        ),
        (
            "ml100k_0.3_cap5".into(),
            SyntheticConfig::ml100k().scaled(0.3).generate(),
            capped,
            0x80e3a2d741ff0e46,
        ),
        (
            "beauty_0.3_hop2".into(),
            SyntheticConfig::beauty().scaled(0.3).generate(),
            short_hop,
            0x98dec761cf80f065,
        ),
    ]
}

#[test]
fn graph_builder_matches_pre_rewrite_pins() {
    let mut failures = Vec::new();
    for (name, ds, cfg, pinned) in fixtures() {
        let got = hash_graph(&build_graph(&ds, &cfg));
        if got != pinned {
            failures.push(format!("{name}: got 0x{got:016x}, pinned 0x{pinned:016x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "graph builder diverged from the pre-rewrite pin:\n{}",
        failures.join("\n")
    );
}

/// The corpus sizes the row-parallel rewrite targets, under the default
/// configuration and under the caps `ssdrec-bench data-scale` uses, pinned
/// from the sort-and-merge builder. `(fixture, default pin, capped pin)`.
#[test]
fn graph_builder_matches_pins_at_corpus_scale() {
    let capped = GraphConfig {
        max_item_users: 16,
        max_context_items: 64,
        ..GraphConfig::default()
    };
    let corpora = [
        (
            "beauty_10_seed1",
            SyntheticConfig::beauty().scaled(10.0).with_seed(1),
            0x8fe1e39c7abc7588,
            0x3d2b097bf5555ecb,
        ),
        (
            "beauty_10_seed5",
            SyntheticConfig::beauty().scaled(10.0).with_seed(5),
            0x1f248037c00050a0,
            0x938ba952fbd7a178,
        ),
        (
            "ml1m_1.0",
            SyntheticConfig::ml1m().scaled(1.0),
            0x8eae8e81a1185ac3,
            0xb1103e7929260480,
        ),
    ];
    let mut failures = Vec::new();
    for (name, corpus, default_pin, capped_pin) in corpora {
        let ds = corpus.generate();
        for (cfg_name, cfg, pinned) in [
            ("default", GraphConfig::default(), default_pin),
            ("capped", capped.clone(), capped_pin),
        ] {
            let got = hash_graph(&build_graph(&ds, &cfg));
            if got != pinned {
                failures.push(format!(
                    "{name}/{cfg_name}: got 0x{got:016x}, pinned 0x{pinned:016x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "graph builder diverged from the corpus-scale pins:\n{}",
        failures.join("\n")
    );
}
