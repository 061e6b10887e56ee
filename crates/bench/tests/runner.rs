//! The `ssdrec-bench` binary end to end: exit codes and messages of the
//! rejected command lines, `--list`, the `table4 --fast` JSON report, and
//! where reports land.
//! (Table lookups and selector parsing are unit-tested in `src/lib.rs`.)

use std::process::{Command, Output};

use ssdrec_base::json;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssdrec-bench"))
        .args(args)
        .output()
        .expect("spawn ssdrec-bench")
}

#[test]
fn rejected_command_lines_exit_2_with_a_one_line_error() {
    for (args, want) in [
        (
            &["table3", "--dataset", "beauty"][..],
            "error: unknown flag --dataset (valid: --list, --fast, --full, --datasets, --models, \
             --users, --sweep-insert)\n",
        ),
        (
            &["table4", "--full", "--fast"],
            "error: --fast and --full conflict: pick one scale\n",
        ),
        (
            &["table5", "--datasets", "imaginary"],
            "error: --datasets: unknown name \"imaginary\" \
             (valid: ml-100k, ml-1m, beauty, sports, yelp)\n",
        ),
        (
            &["table3", "--models", "LSTM"],
            "error: --models: unknown name \"LSTM\" \
             (valid: GRU4Rec, NARM, STAMP, Caser, SASRec, BERT4Rec)\n",
        ),
        (
            &["fig4", "--users", "many"],
            "error: --users: cannot parse \"many\"\n",
        ),
    ] {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, want, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn unknown_entry_prints_the_list_and_list_exits_0() {
    let listed = bench(&["--list"]);
    assert_eq!(listed.status.code(), Some(0));
    let list = String::from_utf8_lossy(&listed.stdout);
    for name in ["table2", "fig5", "ext-gumbel-cost", "data-scale"] {
        assert!(list.contains(&format!("\n  {name} ")), "{name} not listed");
    }

    let out = bench(&["tabel4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, format!("error: unknown entry \"tabel4\"\n{list}"));
}

#[test]
fn table4_fast_reports_one_json_row_per_method() {
    let out = bench(&["table4", "--fast"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The report is the tail of stdout, and the same bytes are on disk.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = &stdout[stdout.find("[\n{").expect("JSON report on stdout")..];
    let stderr = String::from_utf8_lossy(&out.stderr);
    let path = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("results written to "))
        .find(|p| p.ends_with("results/table4_fast.json"))
        .expect("table4_fast.json announced under results/");
    assert_eq!(std::fs::read_to_string(path).unwrap(), report);

    let rows = json::parse(report).expect("valid JSON");
    let rows = rows.as_arr().expect("array of rows");
    let models: Vec<&str> = rows
        .iter()
        .map(|r| r.get("model").and_then(|m| m.as_str()).expect("model"))
        .collect();
    assert_eq!(
        models,
        ["DSAN", "FMLP-Rec", "HSD", "DCRec", "STEAM", "CL4SRec", "MGSD-WSS", "SSDRec"]
    );
    for r in rows {
        assert_eq!(r.get("dataset").and_then(|d| d.as_str()), Some("sports"));
        for k in ["hr10", "hr20", "ndcg10"] {
            let v = r.get(k).and_then(|v| v.as_f64()).expect(k);
            assert!((0.0..=1.0).contains(&v), "{k} = {v}");
        }
    }
}

/// Reports land in the checkout's `results/` whatever the working
/// directory: started outside any checkout, the binary writes nothing
/// there.
#[test]
fn reports_land_in_the_checkout_from_any_working_directory() {
    let cwd = std::env::temp_dir().join(format!("ssdrec-bench-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ssdrec-bench"))
        .args(["table2", "--fast"])
        .current_dir(&cwd)
        .output()
        .expect("spawn ssdrec-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let checkout = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2);
    let want = checkout.unwrap().join("results/table2_stats.csv");
    let announced = format!("results written to {}", want.display());
    assert!(stderr.lines().any(|l| l == announced), "{stderr}");
    assert!(want.is_file());
    assert!(!cwd.join("results").exists(), "results/ written to the cwd");
    std::fs::remove_dir_all(cwd).unwrap();
}
