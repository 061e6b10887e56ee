//! Minimal flag parsing for the CLI (no external dependencies).

use std::collections::{BTreeSet, HashMap};

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    opts: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of argument strings (excluding argv[0]).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("bare \"--\" is not a valid option".into());
                }
                if let Some((k, v)) = key.split_once('=') {
                    // Explicit `--key=value`: the only way to pass a value
                    // that itself starts with `--`.
                    if k.is_empty() {
                        return Err(format!("missing option name in {a:?}"));
                    }
                    out.opts.insert(k.to_string(), v.to_string());
                    continue;
                }
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.opts.insert(key.to_string(), v);
                    }
                    // The next token is another option (or nothing): treat
                    // this one as a boolean flag. A value starting with
                    // `--` must be spelled `--key=value`.
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                return Err(format!("unexpected positional argument {a:?}"));
            }
        }
        Ok(out)
    }

    /// Value of `--key`, if provided.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Value of `--key` or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed numeric value of `--key` or a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Whether a boolean `--flag` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Every option name given, valued or bare, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let all = self.opts.keys().chain(&self.flags).map(String::as_str);
        all.collect::<BTreeSet<_>>().into_iter()
    }
}

/// Every `--name` spelled in `text` (a usage text), without the dashes.
pub fn option_names(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|word| word.strip_prefix("--"))
        .filter(|name| !name.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string)).unwrap()
    }

    #[test]
    fn parses_command_opts_and_flags() {
        let a = parse("train --profile beauty --epochs 12 --verbose");
        assert_eq!(a.command.as_deref(), Some("train"));
        assert_eq!(a.get("profile"), Some("beauty"));
        assert_eq!(a.get_parse("epochs", 0usize).unwrap(), 12);
        assert!(a.has_flag("verbose"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("stats");
        assert_eq!(a.get_or("profile", "beauty"), "beauty");
        assert_eq!(a.get_parse("dim", 16usize).unwrap(), 16);
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse("train --epochs abc");
        assert!(a.get_parse("epochs", 0usize).is_err());
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(Args::parse(["a".to_string(), "b".to_string()]).is_err());
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse("train --quick --full");
        assert!(a.has_flag("quick") && a.has_flag("full"));
    }

    #[test]
    fn equals_syntax_carries_values() {
        let a = parse("train --scale=0.25 --out=ckpt.ssdt");
        assert_eq!(a.get("scale"), Some("0.25"));
        assert_eq!(a.get("out"), Some("ckpt.ssdt"));
    }

    #[test]
    fn equals_syntax_allows_dashdash_values() {
        // Space-separated, a value starting with `--` would be mistaken
        // for the next option; `=` passes it through unambiguously.
        let a = parse("train --out=--strange-name --verbose");
        assert_eq!(a.get("out"), Some("--strange-name"));
        assert!(a.has_flag("verbose"));
        let b = parse("train --out --strange-name");
        assert_eq!(b.get("out"), None, "space form cannot carry -- values");
        assert!(b.has_flag("out") && b.has_flag("strange-name"));
    }

    #[test]
    fn empty_value_via_equals() {
        let a = parse("train --note=");
        assert_eq!(a.get("note"), Some(""));
    }

    #[test]
    fn names_lists_options_and_flags_once_each() {
        let a = parse("train --epochs 3 --verbose --out=x --epochs 4");
        assert_eq!(a.names().collect::<Vec<_>>(), ["epochs", "out", "verbose"]);
    }

    #[test]
    fn option_names_reads_every_spelled_option() {
        let names = option_names("--dim D --max-len L\n --baseline  train (--out CKPT)");
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            ["baseline", "dim", "max-len", "out"]
        );
    }

    #[test]
    fn bare_double_dash_is_rejected() {
        assert!(Args::parse(["train".to_string(), "--".to_string()]).is_err());
        assert!(Args::parse(["train".to_string(), "--=x".to_string()]).is_err());
    }
}
