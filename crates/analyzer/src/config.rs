//! `analyzer.toml` loading via a hand-rolled TOML-subset parser.
//!
//! The subset is exactly what the config needs: `[section]` headers,
//! `key = "string"`, `key = true|false`, and `key = [ "a", "b" ]` arrays
//! (single- or multi-line). Comments start with `#` outside strings.
//! Anything else is a hard error — a config typo should stop CI, not be
//! silently ignored.

use std::collections::BTreeMap;

/// Parsed analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes (relative to the workspace root) to scan.
    pub include: Vec<String>,
    /// Path prefixes excluded from the scan entirely.
    pub exclude: Vec<String>,
    /// Path prefixes subject to the determinism lint.
    pub determinism_paths: Vec<String>,
    /// Path prefixes subject to the panic-hygiene lint.
    pub panic_paths: Vec<String>,
    /// Qualified hot-function names (`Type::name` or bare `name`)
    /// subject to the hot-path allocation lint.
    pub hot_functions: Vec<String>,
    /// When `true`, indexing expressions in panic-lint paths must carry
    /// a `bound:` comment on the same line.
    pub index_bound_comments: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            include: vec!["src".into(), "crates".into()],
            exclude: Vec::new(),
            determinism_paths: Vec::new(),
            panic_paths: Vec::new(),
            hot_functions: Vec::new(),
            index_bound_comments: false,
        }
    }
}

/// One parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    List(Vec<String>),
}

/// Parses the TOML subset into `section.key -> value`.
fn parse_toml_subset(text: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {}: unterminated section header", lineno + 1))?;
            section = name.trim().to_string();
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let key = key.trim();
        let mut val = val.trim().to_string();
        // Multi-line array: keep consuming lines until the closing `]`.
        if val.starts_with('[') && !balanced_list(&val) {
            for (lineno2, raw2) in lines.by_ref() {
                val.push(' ');
                val.push_str(strip_comment(raw2).trim());
                if balanced_list(&val) {
                    break;
                }
                if lineno2 > lineno + 200 {
                    return Err(format!("line {}: unterminated array", lineno + 1));
                }
            }
        }
        let parsed = parse_value(&val).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        let full_key = if section.is_empty() {
            key.to_string()
        } else {
            format!("{}.{}", section, key)
        };
        out.insert(full_key, parsed);
    }
    Ok(out)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `true` when a `[...]` array literal has its closing bracket
/// (respecting strings).
fn balanced_list(s: &str) -> bool {
    let mut in_str = false;
    let mut escape = false;
    let mut depth = 0i32;
    for c in s.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        return Ok(Value::Str(unescape(body)));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only hold strings".to_string()),
            }
        }
        return Ok(Value::List(items));
    }
    Err(format!("unsupported value: `{}`", s))
}

/// Splits an array body on top-level commas (respecting strings).
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if escape {
            cur.push(c);
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                cur.push(c);
                escape = true;
            }
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl Config {
    /// Parses a config from TOML text. Unknown keys are an error so
    /// typos (`hot_fuctions`) fail loudly instead of disabling a lint.
    pub fn from_toml(text: &str) -> Result<Config, String> {
        let map = parse_toml_subset(text)?;
        let mut cfg = Config::default();
        for (key, value) in map {
            match (key.as_str(), value) {
                ("scan.include", Value::List(v)) => cfg.include = v,
                ("scan.exclude", Value::List(v)) => cfg.exclude = v,
                ("determinism.paths", Value::List(v)) => cfg.determinism_paths = v,
                ("panic.paths", Value::List(v)) => cfg.panic_paths = v,
                ("panic.index_bound_comments", Value::Bool(b)) => cfg.index_bound_comments = b,
                ("hot.functions", Value::List(v)) => cfg.hot_functions = v,
                (other, _) => {
                    return Err(format!("unknown or mistyped config key `{}`", other));
                }
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::from_toml(
            r#"
# comment
[scan]
include = ["src", "crates"]
exclude = ["vendor"] # trailing comment

[determinism]
paths = ["crates/sim/src"]

[panic]
paths = ["crates/sim/src", "crates/net/src"]
index_bound_comments = true

[hot]
functions = [
    "Executor::step",
    "ProcessTable::transmit_sweep",
]
"#,
        )
        .unwrap();
        assert_eq!(cfg.include, vec!["src", "crates"]);
        assert_eq!(cfg.exclude, vec!["vendor"]);
        assert_eq!(cfg.determinism_paths, vec!["crates/sim/src"]);
        assert!(cfg.index_bound_comments);
        assert_eq!(
            cfg.hot_functions,
            vec!["Executor::step", "ProcessTable::transmit_sweep"]
        );
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = Config::from_toml("[hot]\nfuctions = [\"x\"]").unwrap_err();
        assert!(err.contains("fuctions"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::from_toml("[scan]\ninclude = [\"a#b\"]").unwrap();
        assert_eq!(cfg.include, vec!["a#b"]);
    }

    #[test]
    fn bad_syntax_is_an_error() {
        assert!(Config::from_toml("[scan\ninclude = []").is_err());
        assert!(Config::from_toml("just words").is_err());
        assert!(Config::from_toml("[scan]\ninclude = [1, 2]").is_err());
    }
}
