//! The docs cite only names the code still has.
//!
//! DESIGN.md, README.md and EXPERIMENTS.md are read as markdown. Every
//! inline code span is a citation, and so is every `--option` on a fenced
//! `ssdrec …`, `ssdrec-bench …` or `benchmark/run.sh …` command line. A span
//! is split on whitespace and brackets, and each token must resolve by the
//! first rule that fits it:
//!
//! * an `--option` must be accepted by the command it is given to —
//!   `ssdrec`'s `usage()`, `ssdrec-bench`'s parser, or `benchmark/run.sh`
//!   and its driver — and a bare `--option` span by one of them;
//! * an `SSDREC_*` variable must be one the code reads;
//! * `file.rs::name` needs the file, and `name` in that file's code;
//! * a one-segment `/route` must be a string literal in some `.rs` file;
//! * any other path (a token with a `/`) must name a repo file or
//!   directory, from the root or as the tail of a repo path
//!   (`backend/isa.rs`); a `*` segment matches any one segment;
//! * a file name (`math.rs`, `BENCHMARK.json`) must name a repo file;
//! * any other dotted name (a metric, a fault site, an artefact like
//!   `model.ssdt`) must appear in `BENCHMARK.json` or in a `.rs` file's
//!   code, where a `*` in it matches any run;
//! * a Rust name — an `a::b` path, a snake_case name with an `_`, a
//!   CamelCase type or a SCREAMING_CASE constant — must appear in some `.rs`
//!   file's code or be a `.rs` file stem.
//!
//! "Code" excludes `//` comments. A failure names `file:line` and the
//! citation. A citation this test cannot resolve is rewritten, not excused.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// Extensions a cited file name must resolve to a repo file for.
const REPO_FILE_EXT: [&str; 7] = ["rs", "md", "sh", "json", "toml", "txt", "lock"];

/// Where a span's words split into tokens.
const SEPARATORS: [char; 16] = [
    '(', ')', '[', ']', '{', '}', '<', '>', ',', ';', '&', '"', '\'', '|', '=', '?',
];

/// The commands whose options are checked, and who accepts them.
const CLI: usize = 0;
const BENCH: usize = 1;
const RUN_SH: usize = 2;
const ACCEPTED_BY: [&str; 3] = [
    "ssdrec's usage()",
    "ssdrec-bench's parser",
    "benchmark/run.sh or its driver",
];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every file under `dir` (`rel` from the root), skipping hidden
/// directories, `target` and the directories `.gitignore` names.
fn walk(dir: &Path, rel: &str, ignored: &HashSet<&str>, out: &mut Vec<String>) {
    for e in fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let path = format!("{rel}{name}");
        if !e.path().is_dir() {
            out.push(path);
        } else if !name.starts_with('.') && name != "target" && !ignored.contains(&*name) {
            walk(&e.path(), &format!("{path}/"), ignored, out);
        }
    }
}

/// `src` without its `//` comments; strings and char literals kept.
fn strip_comments(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let (mut i, mut in_str) = (0, false);
    while i < b.len() {
        let c = b[i];
        let mut end = i + 1;
        if in_str {
            in_str = c != '"';
            end += usize::from(c == '\\');
        } else if c == '"' {
            in_str = true;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            i = (i..b.len()).find(|&j| b[j] == '\n').unwrap_or(b.len());
            continue;
        } else if c == '\'' && b.get(i + 1) == Some(&'\\') {
            end = (i + 3..b.len())
                .find(|&j| b[j] == '\'')
                .map_or(b.len(), |j| j + 1);
        } else if c == '\'' && b.get(i + 2) == Some(&'\'') {
            end = i + 3;
        }
        out.extend(&b[i..end.min(b.len())]);
        i = end;
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers in `text`; a run that starts with a digit is a number.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The `--options` spelled in `text`.
fn options_in(text: &str) -> HashSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(option_token)
        .collect()
}

/// The `--option` a word starts with, if any.
fn option_token(word: &str) -> Option<String> {
    let name = word
        .trim_start_matches(['[', '(', '\'', '"'])
        .strip_prefix("--")?;
    let len = name
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or(name.len());
    let name = name[..len].trim_end_matches('-');
    name.starts_with(|c: char| c.is_ascii_lowercase())
        .then(|| format!("--{name}"))
}

/// `pat` with `*` matching any run of characters, against `s`.
fn glob(pat: &str, s: &str) -> bool {
    let mut parts = pat.split('*');
    let Some(mut rest) = s.strip_prefix(parts.next().unwrap()) else {
        return false;
    };
    let parts: Vec<&str> = parts.collect();
    for (i, p) in parts.iter().enumerate() {
        if i + 1 == parts.len() {
            return rest.ends_with(p);
        }
        match rest.find(p) {
            Some(at) => rest = &rest[at + p.len()..],
            None => return false,
        }
    }
    rest.is_empty()
}

/// A snake_case name with an `_`, a CamelCase type or a SCREAMING_CASE
/// constant.
fn is_rust_name(s: &str) -> bool {
    let has = |f: fn(&char) -> bool| s.chars().any(|c| f(&c));
    let lower = s.starts_with(|c: char| c.is_ascii_lowercase()) && !has(char::is_ascii_uppercase);
    let upper = s.starts_with(|c: char| c.is_ascii_uppercase());
    let camel = upper && has(char::is_ascii_lowercase) && !s.contains('_');
    let screaming = upper && !has(char::is_ascii_lowercase);
    ((lower || screaming) && s.contains('_')) || camel
}

/// The command a line of words runs, and the index its arguments start at.
fn command(words: &[&str]) -> Option<(usize, usize)> {
    let skip = words
        .iter()
        .take_while(|w| w.contains('=') && !w.starts_with('-'))
        .count();
    let prog = *words.get(skip)?;
    match prog.rsplit('/').next().unwrap() {
        "ssdrec" => Some((CLI, skip + 1)),
        "ssdrec-bench" => Some((BENCH, skip + 1)),
        _ if prog.ends_with("benchmark/run.sh") => Some((RUN_SH, skip + 1)),
        // `cargo run … -p ssdrec-bench -- ARGS`
        "cargo" => {
            let pkg = words.windows(2).find(|w| matches!(w[0], "-p" | "--bin"))?[1];
            let cmd = [("ssdrec-cli", CLI), ("ssdrec-bench", BENCH)]
                .into_iter()
                .find(|(p, _)| *p == pkg)?
                .1;
            Some((cmd, words.iter().position(|w| *w == "--")? + 1))
        }
        _ => None,
    }
}

struct Tree {
    /// Every repo file, relative to the root.
    files: Vec<String>,
    /// Every `.rs` file and its code.
    code: Vec<(String, String)>,
    /// Every identifier in the code of every `.rs` file, and the file stems.
    names: HashSet<String>,
    /// Every dotted name in the code and in `BENCHMARK.json`.
    dotted: HashSet<String>,
    /// The `SSDREC_*` variables the code reads.
    env: HashSet<String>,
    /// The options each command accepts, indexed by `CLI`, `BENCH`, `RUN_SH`.
    options: [HashSet<String>; 3],
}

impl Tree {
    fn load() -> Tree {
        let gitignore = read(".gitignore");
        let ignored = gitignore
            .lines()
            .filter_map(|l| l.strip_suffix('/'))
            .filter(|l| !l.contains(['/', '*', '#']))
            .collect();
        let mut files = Vec::new();
        walk(
            Path::new(env!("CARGO_MANIFEST_DIR")),
            "",
            &ignored,
            &mut files,
        );
        // This file spells unknown names on purpose, to test the checker.
        let code: Vec<(String, String)> = files
            .iter()
            .filter(|f| f.ends_with(".rs") && *f != file!())
            .map(|f| (f.clone(), strip_comments(&read(f))))
            .collect();
        let mut names: HashSet<String> = files
            .iter()
            .filter_map(|f| f.strip_suffix(".rs"))
            .map(|f| f.rsplit('/').next().unwrap().to_string())
            .collect();
        let mut dotted = HashSet::new();
        let mut env = HashSet::new();
        let benchmark_json = read("BENCHMARK.json");
        let sources = code.iter().map(|(f, c)| (f.as_str(), c.as_str()));
        for (f, src) in sources.chain([("BENCHMARK.json", benchmark_json.as_str())]) {
            names.extend(idents(src).map(str::to_string));
            dotted.extend(
                src.split(|c: char| !(is_ident_char(c) || c == '.'))
                    .filter(|w| w.contains('.') && w.starts_with(|c: char| c.is_ascii_alphabetic()))
                    .map(|w| w.trim_end_matches('.').to_string()),
            );
            if ["crates/", "src/", "tests/"]
                .iter()
                .any(|d| f.starts_with(d))
            {
                // Whole literals, as `scripts/ci.sh` stage 1 counts them.
                let read_var = |l: &&str| {
                    l.strip_prefix("SSDREC_").is_some_and(|v| {
                        !v.is_empty() && v.chars().all(|c| c.is_ascii_uppercase() || c == '_')
                    })
                };
                env.extend(src.split('"').filter(read_var).map(str::to_string));
            }
        }
        let cli_src = strip_comments(&read("crates/cli/src/main.rs"));
        let usage = &cli_src[cli_src.find("fn usage()").expect("ssdrec's usage()")..];
        let usage = &usage[..usage.find("\n}").expect("the end of usage()")];
        let mut run_sh = options_in(&read("benchmark/run.sh"));
        run_sh.extend(options_in(&strip_comments(&read(
            "benchmark/driver/src/main.rs",
        ))));
        let options = [
            options_in(usage),
            options_in(&strip_comments(&read("crates/bench/src/lib.rs"))),
            run_sh,
        ];
        Tree {
            files,
            code,
            names,
            dotted,
            env,
            options,
        }
    }

    /// `path` names a repo file or directory, from the root or as the tail
    /// of a repo path; a `*` segment matches any one segment, and a trailing
    /// `/` wants a directory.
    fn path_exists(&self, path: &str) -> bool {
        let want: Vec<&str> = path.trim_end_matches('/').split('/').collect();
        !path.starts_with('/')
            && self.files.iter().any(|f| {
                let segs: Vec<&str> = f.split('/').collect();
                // A directory is any strict prefix of a file's path.
                let last = segs.len() - usize::from(path.ends_with('/'));
                (want.len()..=last).any(|end| {
                    let tail = &segs[end - want.len()..end];
                    tail.iter().zip(&want).all(|(s, w)| glob(w, s))
                })
            })
    }
}

struct Checker<'a> {
    tree: &'a Tree,
    failures: Vec<String>,
}

impl Checker<'_> {
    fn fail(&mut self, at: &str, citation: &str, why: &str) {
        self.failures.push(format!("{at}: `{citation}` {why}"));
    }

    /// `opt` is accepted by command `cmd`, or by any command.
    fn check_option(&mut self, at: &str, opt: &str, cmd: Option<usize>) {
        let opts = &self.tree.options;
        let ok = match cmd {
            Some(c) => opts[c].contains(opt),
            None => opts.iter().any(|o| o.contains(opt)),
        };
        if !ok {
            let whose = cmd.map_or("any command", |c| ACCEPTED_BY[c]);
            self.fail(at, opt, &format!("is not an option {whose} accepts"));
        }
    }

    fn check_env(&mut self, at: &str, text: &str) {
        for var in idents(text).filter(|i| i.starts_with("SSDREC_")) {
            if !self.tree.env.contains(var) {
                self.fail(at, var, "is not an SSDREC_* variable the code reads");
            }
        }
    }

    /// The `--options` and variables of a command line; false if `words`
    /// run no command this test knows.
    fn check_command_line(&mut self, at: &str, words: &[&str]) -> bool {
        let Some((cmd, from)) = command(words) else {
            return false;
        };
        self.check_env(at, &words[..from].join(" "));
        for opt in words[from..].iter().filter_map(|w| option_token(w)) {
            self.check_option(at, &opt, Some(cmd));
        }
        true
    }

    fn check_span(&mut self, at: &str, span: &str) {
        let words: Vec<&str> = span.split_whitespace().collect();
        // A cargo line's options are cargo's.
        let options_done = self.check_command_line(at, &words) || words.first() == Some(&"cargo");
        if !options_done {
            self.check_env(at, span);
        }
        for word in &words {
            if let Some(opt) = option_token(word) {
                if !options_done {
                    self.check_option(at, &opt, None);
                }
            } else {
                for token in word.split(SEPARATORS) {
                    self.check_token(at, token.trim_end_matches(['.', ':', '!']));
                }
            }
        }
    }

    fn check_token(&mut self, at: &str, token: &str) {
        let tree = self.tree;
        if token.is_empty() || token.starts_with(['-', '$']) || token.starts_with("SSDREC_") {
            return;
        }
        if let Some((file, name)) = token.split_once(".rs::") {
            let file = format!("{file}.rs");
            let has = |(f, code): &(String, String)| {
                glob(&format!("*{file}"), f) && idents(code).any(|i| i == name)
            };
            if !tree.path_exists(&file) {
                self.fail(at, token, "names a file that does not exist");
            } else if !tree.code.iter().any(has) {
                self.fail(at, token, &format!("cites `{name}`, which {file} lacks"));
            }
        } else if token.starts_with('/') && !token[1..].contains('/') {
            let literal = format!("\"{token}\"");
            if !tree.code.iter().any(|(_, code)| code.contains(&literal)) {
                self.fail(at, token, "is a route no .rs file spells");
            }
        } else if token.contains('/') {
            if !tree.path_exists(token) {
                self.fail(at, token, "is not a path in the repo");
            }
        } else if token.contains('.') && token.starts_with(|c: char| c.is_ascii_alphabetic()) {
            let ext = token.rsplit('.').next().unwrap();
            if REPO_FILE_EXT.contains(&ext) {
                let base = |f: &String| f.rsplit('/').next().unwrap().to_string();
                if !tree.files.iter().any(|f| glob(token, &base(f))) {
                    self.fail(at, token, "names no file in the repo");
                }
            } else if !tree.dotted.iter().any(|d| glob(token, d)) {
                self.fail(at, token, "is in neither BENCHMARK.json nor any .rs source");
            }
        } else {
            for path in token.split(|c: char| !(is_ident_char(c) || c == ':')) {
                let path = path.trim_matches(':');
                let segs: Vec<&str> = path.split("::").collect();
                let known = |s: &&str| tree.names.contains(*s) || s.starts_with(char::is_numeric);
                if (segs.len() > 1 || is_rust_name(path)) && !segs.iter().all(known) {
                    self.fail(at, path, "is in no .rs file and is no .rs file stem");
                }
            }
        }
    }
}

/// The stale citations of `doc`.
fn check_doc(tree: &Tree, doc: &str) -> Vec<String> {
    let text = read(doc);
    let mut ck = Checker {
        tree,
        failures: Vec::new(),
    };
    let lines: Vec<&str> = text.lines().collect();
    let (mut fenced, mut i) = (false, 0);
    // An inline span still open at the end of a line: its line and text.
    let mut open: Option<(String, String)> = None;
    while i < lines.len() {
        let (line, at) = (lines[i], format!("{doc}:{}", i + 1));
        i += 1;
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            // One command line, with its `\` continuations and no comment.
            let mut cmd = line.to_string();
            while cmd.ends_with('\\') && i < lines.len() {
                cmd = format!("{} {}", cmd.trim_end_matches('\\'), lines[i]);
                i += 1;
            }
            let cmd = cmd.split(" #").next().unwrap();
            ck.check_command_line(&at, &cmd.split_whitespace().collect::<Vec<_>>());
        } else {
            let mut rest = line;
            if let Some((first, span)) = open.take() {
                let Some(close) = rest.find('`') else {
                    // A blank line ends the paragraph, and with it the span.
                    open = (!line.trim().is_empty()).then(|| (first, format!("{span} {line}")));
                    continue;
                };
                ck.check_span(&first, &format!("{span} {}", &rest[..close]));
                rest = &rest[close + 1..];
            }
            while let Some(start) = rest.find('`') {
                let after = &rest[start + 1..];
                let Some(close) = after.find('`') else {
                    open = Some((at.clone(), after.to_string()));
                    break;
                };
                ck.check_span(&at, &after[..close]);
                rest = &after[close + 1..];
            }
        }
    }
    ck.failures
}

#[test]
fn docs_cite_only_what_exists() {
    let tree = Tree::load();
    assert!(
        tree.options[CLI].contains("--threads"),
        "found no usage() options"
    );
    assert!(
        tree.options[BENCH].contains("--fast"),
        "found no ssdrec-bench options"
    );
    assert!(
        tree.options[RUN_SH].contains("--e2e-only"),
        "found no run.sh options"
    );
    assert!(
        tree.env.contains("SSDREC_THREADS"),
        "found no SSDREC_* reads"
    );
    let failures: Vec<String> = DOCS.iter().flat_map(|d| check_doc(&tree, d)).collect();
    assert!(
        failures.is_empty(),
        "{} stale citation(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_checker_resolves_and_refuses() {
    let tree = Tree::load();
    let mut ck = Checker {
        tree: &tree,
        failures: Vec::new(),
    };
    for good in [
        "crates/tensor/src/math.rs",
        "backend/isa.rs",
        "crates/*/src",
        "tests/chaos.rs::killed_and_resumed_training_is_bit_identical",
        "ssdrec_models::fit(model, &SourceSplit)",
        "Box<dyn RecModel>",
        "KERNEL_BITS_VERSION",
        "core.*_fwd_ms",
        "serve.read",
        "/metrics",
        "SSDREC_POOL=0",
        "--linger-ms",
        "ssdrec train --threads 2",
        "BENCHMARK.json",
    ] {
        ck.check_span("good", good);
    }
    assert!(ck.failures.is_empty(), "refused: {:?}", ck.failures);
    for bad in [
        "crates/tensor/src/trainer.rs",
        "tests/chaos.rs::no_such_test",
        "ssdrec_models::no_such_fn",
        "NoSuchType",
        "epoch_time_bench",
        "serve.no_such_site",
        "/no_such_route",
        "SSDREC_NO_SUCH=1",
        "--no-such-option",
        "ssdrec-bench table4 --threads",
        "no_such_file.rs",
    ] {
        let before = ck.failures.len();
        ck.check_span("bad", bad);
        assert!(ck.failures.len() > before, "accepted `{bad}`");
    }
}
