//! Table II: statistics of the experimental datasets.
//!
//! Prints the generated synthetic profiles' statistics in the paper's
//! format (# Users, # Items, # Actions, # Avg. lens, # Sparsity) alongside
//! the paper's reported values, so the structural correspondence is visible.

use crate::{prepare_profile, write_results, Args, DATASETS};

/// The paper's Table II rows for reference printing.
const PAPER: [(&str, usize, usize, usize, f64, f64); 5] = [
    ("beauty", 22_364, 12_102, 198_502, 8.9, 99.93),
    ("sports", 35_599, 18_358, 296_337, 8.3, 99.95),
    ("yelp", 30_495, 20_062, 317_078, 10.4, 99.95),
    ("ml-100k", 944, 1_350, 99_287, 105.3, 92.21),
    ("ml-1m", 6_041, 3_417, 999_611, 165.5, 95.16),
];

pub(crate) fn run(a: &Args) {
    println!("Table II — dataset statistics (simulated profiles vs paper)");
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>9} {:>10}   | paper: users/items/actions/avg/sparsity",
        "dataset", "users", "items", "actions", "avg.len", "sparsity%"
    );
    let mut csv = Vec::new();
    for name in a.datasets(&DATASETS) {
        let prep = prepare_profile(name, &a.h);
        let ds = &prep.dataset;
        let nonempty = ds.sequences.iter().filter(|s| !s.is_empty()).count();
        let paper = PAPER.iter().find(|p| p.0 == name).expect("paper row");
        println!(
            "{:<10} {:>8} {:>8} {:>9} {:>9.1} {:>10.2}   | {}/{}/{}/{:.1}/{:.2}",
            name,
            nonempty,
            ds.num_items,
            ds.num_actions(),
            ds.avg_len(),
            ds.sparsity(),
            paper.1,
            paper.2,
            paper.3,
            paper.4,
            paper.5,
        );
        csv.push(format!(
            "{name},{nonempty},{},{},{:.2},{:.4}",
            ds.num_items,
            ds.num_actions(),
            ds.avg_len(),
            ds.sparsity()
        ));
    }
    write_results(
        "table2_stats.csv",
        "dataset,users,items,actions,avg_len,sparsity_pct",
        &csv,
    );
}
