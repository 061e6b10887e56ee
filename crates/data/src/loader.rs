//! Loading real interaction data from disk.
//!
//! The reproduction itself runs on synthetic profiles (see `DESIGN.md`), but
//! downstream users will have real logs. This module parses the two common
//! text formats into a [`Dataset`] or directly into a columnar `.ssdc` file:
//!
//! * **MovieLens `u.data` style**: `user \t item \t rating \t timestamp`
//!   (any single-character delimiter), with optional rating filtering — the
//!   paper filters items rated below 3 in its Fig. 1 setup.
//! * **CSV triples**: `user,item,timestamp` with an optional header row.
//!
//! User and item IDs are re-indexed densely; interactions are sorted by
//! timestamp per user (stable for ties, preserving file order). Every
//! rejection is a typed [`LoadError`] carrying the 1-based line number of
//! the offending record.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::colfile::{ColumnarSummary, ColumnarWriter};
use crate::format::FormatError;
use crate::interaction::Dataset;

/// Parsed options for [`load_interactions`].
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Field delimiter (tab for `u.data`, comma for CSV).
    pub delimiter: char,
    /// Whether the first line is a header to skip.
    pub has_header: bool,
    /// Column index of the user field.
    pub user_col: usize,
    /// Column index of the item field.
    pub item_col: usize,
    /// Column index of the timestamp field.
    pub time_col: usize,
    /// Optional column index of a rating field plus the minimum rating to
    /// keep (the paper keeps ratings ≥ 3 when constructing Fig. 1).
    pub min_rating: Option<(usize, f64)>,
    /// Dataset name to record.
    pub name: String,
}

impl LoadOptions {
    /// MovieLens `u.data`: `user \t item \t rating \t timestamp`.
    pub fn movielens() -> Self {
        LoadOptions {
            delimiter: '\t',
            has_header: false,
            user_col: 0,
            item_col: 1,
            time_col: 3,
            min_rating: Some((2, 3.0)),
            name: "movielens".into(),
        }
    }

    /// Headerless CSV triples `user,item,timestamp`.
    pub fn csv_triples() -> Self {
        LoadOptions {
            delimiter: ',',
            has_header: false,
            user_col: 0,
            item_col: 1,
            time_col: 2,
            min_rating: None,
            name: "csv".into(),
        }
    }
}

/// Typed parse/load errors. Record-level variants carry the 1-based line
/// number of the offending input line.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the input file failed.
    Io(io::Error),
    /// A line has fewer fields than the configured column indices require.
    MissingFields {
        /// 1-based line number.
        line: usize,
        /// Minimum field count the options demand.
        expected: usize,
        /// Fields actually present.
        found: usize,
    },
    /// A field failed to parse as its expected type (includes negative
    /// user/item ids, which are not representable).
    BadField {
        /// 1-based line number.
        line: usize,
        /// Which field (`"user"`, `"item"`, `"rating"`, `"timestamp"`).
        field: &'static str,
        /// The raw text that failed to parse.
        value: String,
    },
    /// The assembled dataset failed structural validation.
    Invalid {
        /// Validation failure description.
        detail: String,
    },
    /// Writing the columnar output failed
    /// ([`parse_interactions_to_columnar`]).
    Format(FormatError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "load I/O error: {e}"),
            LoadError::MissingFields {
                line,
                expected,
                found,
            } => write!(f, "line {line}: expected > {expected} fields, got {found}"),
            LoadError::BadField { line, field, value } => {
                write!(f, "line {line}: bad {field} {value:?}")
            }
            LoadError::Invalid { detail } => write!(f, "invalid dataset: {detail}"),
            LoadError::Format(e) => write!(f, "columnar write failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<FormatError> for LoadError {
    fn from(e: FormatError) -> Self {
        LoadError::Format(e)
    }
}

/// Parsed rows re-indexed into per-user, time-sorted sequences.
struct Indexed {
    num_items: usize,
    /// Per user: `(timestamp, dense item id)`, time-sorted (stable).
    per_user: Vec<Vec<(i64, usize)>>,
}

fn parse_rows(content: &str, opts: &LoadOptions) -> Result<Vec<(u64, u64, i64)>, LoadError> {
    let mut rows: Vec<(u64, u64, i64)> = Vec::new(); // (user, item, ts)
    let max_col = opts
        .user_col
        .max(opts.item_col)
        .max(opts.time_col)
        .max(opts.min_rating.map(|(c, _)| c).unwrap_or(0));

    for (i, line) in content.lines().enumerate() {
        if i == 0 && opts.has_header {
            continue;
        }
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(opts.delimiter).collect();
        if fields.len() <= max_col {
            return Err(LoadError::MissingFields {
                line: line_no,
                expected: max_col,
                found: fields.len(),
            });
        }
        let bad = |field: &'static str, value: &str| LoadError::BadField {
            line: line_no,
            field,
            value: value.to_string(),
        };
        if let Some((rc, min)) = opts.min_rating {
            let rating: f64 = fields[rc]
                .trim()
                .parse()
                .map_err(|_| bad("rating", fields[rc]))?;
            if rating < min {
                continue;
            }
        }
        let user: u64 = fields[opts.user_col]
            .trim()
            .parse()
            .map_err(|_| bad("user", fields[opts.user_col]))?;
        let item: u64 = fields[opts.item_col]
            .trim()
            .parse()
            .map_err(|_| bad("item", fields[opts.item_col]))?;
        let ts: i64 = fields[opts.time_col]
            .trim()
            .parse()
            .map_err(|_| bad("timestamp", fields[opts.time_col]))?;
        rows.push((user, item, ts));
    }
    Ok(rows)
}

fn index_rows(rows: &[(u64, u64, i64)]) -> Indexed {
    // Dense re-indexing in first-appearance order.
    let mut user_ids: HashMap<u64, usize> = HashMap::new();
    let mut item_ids: HashMap<u64, usize> = HashMap::new();
    for &(u, v, _) in rows {
        let nu = user_ids.len();
        user_ids.entry(u).or_insert(nu);
        let ni = item_ids.len() + 1; // 0 is the pad item
        item_ids.entry(v).or_insert(ni);
    }

    // Per-user, timestamp-sorted sequences (stable sort keeps file order on
    // ties).
    let mut per_user: Vec<Vec<(i64, usize)>> = vec![Vec::new(); user_ids.len()];
    for &(u, v, ts) in rows {
        per_user[user_ids[&u]].push((ts, item_ids[&v]));
    }
    for evs in per_user.iter_mut() {
        evs.sort_by_key(|&(ts, _)| ts);
    }
    Indexed {
        num_items: item_ids.len(),
        per_user,
    }
}

/// Parse interaction text into a [`Dataset`].
pub fn parse_interactions(content: &str, opts: &LoadOptions) -> Result<Dataset, LoadError> {
    let rows = parse_rows(content, opts)?;
    let idx = index_rows(&rows);
    let sequences = idx
        .per_user
        .into_iter()
        .map(|evs| evs.into_iter().map(|(_, it)| it).collect())
        .collect::<Vec<Vec<usize>>>();

    let ds = Dataset {
        name: opts.name.clone(),
        num_users: sequences.len(),
        num_items: idx.num_items,
        sequences,
        noise_labels: None,
    };
    ds.validate()
        .map_err(|e| LoadError::Invalid { detail: e })?;
    Ok(ds)
}

/// Parse interaction text straight into a columnar `.ssdc` file at `out`,
/// preserving timestamps in the TIME column. The write is atomic (temp +
/// fsync + rename through the `write.data` fault site) and the produced
/// sequences are identical to `encode_dataset(&parse_interactions(…)?, …)`.
pub fn parse_interactions_to_columnar(
    content: &str,
    opts: &LoadOptions,
    out: impl AsRef<Path>,
) -> Result<ColumnarSummary, LoadError> {
    let rows = parse_rows(content, opts)?;
    let idx = index_rows(&rows);
    let mut w = ColumnarWriter::create(out, &opts.name, idx.num_items, false, true)?;
    let mut seq = Vec::new();
    let mut times = Vec::new();
    for evs in &idx.per_user {
        seq.clear();
        times.clear();
        for &(ts, it) in evs {
            times.push(ts);
            seq.push(it);
        }
        w.push_user(&seq, None, Some(&times))?;
    }
    Ok(w.finish()?)
}

/// Load a [`Dataset`] from a file on disk.
pub fn load_interactions(path: impl AsRef<Path>, opts: &LoadOptions) -> Result<Dataset, LoadError> {
    let content = fs::read_to_string(path)?;
    parse_interactions(&content, opts)
}

/// Convert a text interaction file to columnar, returning the summary.
pub fn load_to_columnar(
    src: impl AsRef<Path>,
    opts: &LoadOptions,
    out: impl AsRef<Path>,
) -> Result<ColumnarSummary, LoadError> {
    let content = fs::read_to_string(src)?;
    parse_interactions_to_columnar(&content, opts, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colfile::ColumnarReader;

    const ML_SAMPLE: &str = "\
1\t10\t5\t100
1\t20\t4\t200
2\t10\t2\t150
2\t30\t5\t50
1\t40\t3\t150
";

    #[test]
    fn parses_movielens_format() {
        let ds = parse_interactions(ML_SAMPLE, &LoadOptions::movielens()).unwrap();
        // User 2's rating-2 interaction on item 10 is filtered; items
        // 10, 20, 40 (user 1) and 30 (user 2) survive.
        assert_eq!(ds.num_users, 2);
        assert_eq!(ds.num_items, 4);
        assert_eq!(ds.num_actions(), 4);
    }

    #[test]
    fn rating_filter_and_time_order() {
        let ds = parse_interactions(ML_SAMPLE, &LoadOptions::movielens()).unwrap();
        // user 1 events by ts: (100, item10), (150, item40), (200, item20).
        let u1 = &ds.sequences[0];
        assert_eq!(u1.len(), 3);
        // user 2 keeps only (50, item30).
        let u2 = &ds.sequences[1];
        assert_eq!(u2.len(), 1);
        // Time ordering within user 1: item10 before item40 before item20.
        let (i10, i40, i20) = (u1[0], u1[1], u1[2]);
        assert!(i10 != i40 && i40 != i20);
    }

    #[test]
    fn csv_triples_parse() {
        let csv = "7,100,3\n7,200,1\n8,100,9\n";
        let ds = parse_interactions(csv, &LoadOptions::csv_triples()).unwrap();
        assert_eq!(ds.num_users, 2);
        assert_eq!(ds.num_items, 2);
        // user 7: ts 1 (item 200) comes before ts 3 (item 100), and
        // user 8's single item equals user 7's *second* (item 100).
        assert_eq!(ds.sequences[0].len(), 2);
        assert_eq!(ds.sequences[0][1], ds.sequences[1][0]);
        assert_ne!(ds.sequences[0][0], ds.sequences[1][0]);
    }

    #[test]
    fn header_skipping() {
        let csv = "user,item,ts\n1,5,1\n1,6,2\n";
        let mut opts = LoadOptions::csv_triples();
        opts.has_header = true;
        let ds = parse_interactions(csv, &opts).unwrap();
        assert_eq!(ds.num_users, 1);
        assert_eq!(ds.sequences[0].len(), 2);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let bad = "1,2,3\nnot,a,number\n";
        match parse_interactions(bad, &LoadOptions::csv_triples()).unwrap_err() {
            LoadError::BadField { line, field, value } => {
                assert_eq!(line, 2);
                assert_eq!(field, "user");
                assert_eq!(value, "not");
            }
            e => panic!("wrong variant: {e:?}"),
        }
        // Display still names the line for human consumers.
        let e = parse_interactions(bad, &LoadOptions::csv_triples()).unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn negative_ids_are_bad_fields() {
        let bad = "1,5,10\n-3,6,20\n";
        match parse_interactions(bad, &LoadOptions::csv_triples()).unwrap_err() {
            LoadError::BadField { line, field, .. } => {
                assert_eq!(line, 2);
                assert_eq!(field, "user");
            }
            e => panic!("wrong variant: {e:?}"),
        }
        let bad_item = "1,5,10\n3,-6,20\n";
        match parse_interactions(bad_item, &LoadOptions::csv_triples()).unwrap_err() {
            LoadError::BadField { line, field, .. } => {
                assert_eq!(line, 2);
                assert_eq!(field, "item");
            }
            e => panic!("wrong variant: {e:?}"),
        }
    }

    #[test]
    fn missing_fields_error() {
        let bad = "1,2\n";
        match parse_interactions(bad, &LoadOptions::csv_triples()).unwrap_err() {
            LoadError::MissingFields { line, found, .. } => {
                assert_eq!(line, 1);
                assert_eq!(found, 2);
            }
            e => panic!("wrong variant: {e:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ssdrec-loader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u.data");
        std::fs::write(&path, ML_SAMPLE).unwrap();
        let ds = load_interactions(&path, &LoadOptions::movielens()).unwrap();
        assert_eq!(ds.num_users, 2);
        assert!(ds.validate().is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn parse_to_columnar_matches_parse_then_encode() {
        let dir = std::env::temp_dir().join(format!("ssdrec-loader-col-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let direct = dir.join("direct.ssdc");
        let summary =
            parse_interactions_to_columnar(ML_SAMPLE, &LoadOptions::movielens(), &direct).unwrap();
        assert_eq!(summary.num_users, 2);
        assert_eq!(summary.num_interactions, 4);

        let ds = parse_interactions(ML_SAMPLE, &LoadOptions::movielens()).unwrap();
        let r = ColumnarReader::open(&direct).unwrap();
        let got = r.to_dataset();
        assert_eq!(got.sequences, ds.sequences);
        assert_eq!(got.num_items, ds.num_items);
        // The direct path preserves timestamps; user 1's are sorted.
        let times = r.read_all_times().unwrap();
        assert_eq!(times[0], vec![100, 150, 200]);
        assert_eq!(times[1], vec![50]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
