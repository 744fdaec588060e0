//! `--bench-compare`: gate a fresh `BENCH_engine.json` measurement against
//! a baseline document, record by record.
//!
//! [`compare`] checks every baseline record against the fresh record with
//! the same identity (series, workload, `n`, `k`, rounds):
//!
//! * each arm's figure (the min of its samples) may be at most
//!   [`MAX_SLOWDOWN`] × the baseline arm's;
//! * the outcome fields must be equal, so a change that silently alters
//!   behaviour fails as surely as one that slows it down;
//! * no arm's limit may be dropped or loosened;
//! * a baseline record missing from the fresh run fails.
//!
//! Every fresh record's per-arm limits (`arm / base ≤ limit`) must hold,
//! and a fresh record without a baseline passes as new.
//!
//! The environment has no serde, so documents are written and read with
//! the minimal JSON value below — its recursive-descent parser accepts
//! exactly the value grammar `BENCH_engine.json` uses (objects, arrays,
//! strings without exotic escapes, numbers, booleans, null) and rejects
//! the rest loudly rather than guessing.

use std::fmt;

use crate::record::BenchRecord;
use crate::report::json_esc;

/// Largest fresh ÷ baseline ratio any arm's figure may reach.
pub const MAX_SLOWDOWN: f64 = 1.25;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough structure to read bench documents).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (bench docs have no duplicate keys).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Containers nested below this value (0 for a scalar).
    fn depth(&self) -> usize {
        let children = match self {
            JsonValue::Arr(items) => items.iter().map(JsonValue::depth).max(),
            JsonValue::Obj(fields) => fields.iter().map(|(_, v)| v.depth()).max(),
            _ => return 0,
        };
        1 + children.unwrap_or(0)
    }

    /// Renders the value with two-space indentation; a container at most
    /// two levels deep (an arm, an outcome) stays on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes compact JSON, or indented at `indent` levels when given;
    /// non-finite numbers render as `null`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let indent = indent.filter(|_| self.depth() > 2);
        let (open, close, items): (_, _, Vec<(Option<&str>, &JsonValue)>) = match self {
            JsonValue::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
            JsonValue::Null | JsonValue::Num(_) => return out.push_str("null"),
            JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Str(s) => return out.push_str(&format!("\"{}\"", json_esc(s))),
            JsonValue::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            JsonValue::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&k[..]), v)).collect(),
            ),
        };
        let pad = |level: usize| format!("\n{}", "  ".repeat(level));
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            match indent {
                Some(level) => out.push_str(&pad(level + 1)),
                None if i > 0 => out.push(' '),
                None => {}
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", json_esc(key)));
            }
            value.write(out, indent.map(|level| level + 1));
        }
        if let Some(level) = indent {
            out.push_str(&pad(level));
        }
        out.push(close);
    }
}

/// Compact one-line JSON.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}

macro_rules! json_from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(x: $t) -> Self {
                JsonValue::Num(x as f64)
            }
        }
    )*};
}
json_from_integer!(u64, usize, u32);

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(x: Option<T>) -> Self {
        x.map_or(JsonValue::Null, Into::into)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The failure at the current byte offset.
    fn err<T>(&self, expected: &str) -> Result<T, String> {
        Err(format!(
            "invalid JSON at byte {}: expected {expected}",
            self.pos
        ))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &'static str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err("a JSON literal")
        }
    }

    fn string(&mut self) -> Result<String, String> {
        // Opening quote already consumed.
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("a closing '\"'"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        _ => return self.err("a simple escape (\\\" \\\\ \\/ \\n \\t \\r)"),
                    };
                    out.push(esc);
                    self.pos += 1;
                }
                Some(_) => {
                    // One UTF-8 scalar: every other token is ASCII, so the
                    // offset sits on a char boundary.
                    let c = self.text[self.pos..].chars().next().unwrap_or_default();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let text = self.text;
        text[start..self.pos].parse().or_else(|_| {
            self.pos = start;
            self.err("a number")
        })
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    if !self.eat(b'"') {
                        return self.err("an object key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return self.err("':' after an object key");
                    }
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    if self.eat(b'}') {
                        return Ok(JsonValue::Obj(fields));
                    }
                    return self.err("',' or '}' in an object");
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    if self.eat(b']') {
                        return Ok(JsonValue::Arr(items));
                    }
                    return self.err("',' or ']' in an array");
                }
            }
            Some(b'"') => {
                self.pos += 1;
                Ok(JsonValue::Str(self.string()?))
            }
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(JsonValue::Null)
            }
            Some(b'-' | b'0'..=b'9') => Ok(JsonValue::Num(self.number()?)),
            _ => self.err("a JSON value"),
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// The byte offset and expectation of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("end of document");
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// The comparator
// ---------------------------------------------------------------------------

/// One verdict of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The record checked ([`BenchRecord::label`]).
    pub record: String,
    /// What was checked, with its numbers.
    pub detail: String,
    /// Whether the check passed.
    pub passed: bool,
}

/// Gates `fresh` against `baseline`, returning one [`Check`] per arm,
/// per record's outcome, per limit, per dropped or loosened limit, per new
/// record and per baseline record missing from `fresh` (see the module
/// docs for the rules).
pub fn compare(baseline: &[BenchRecord], fresh: &[BenchRecord]) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut check = |record: &BenchRecord, passed: bool, detail: String| {
        let record = record.label();
        checks.push(Check {
            record,
            detail,
            passed,
        });
    };
    for now in fresh {
        let Some(base) = baseline.iter().find(|b| b.same_identity(now)) else {
            check(now, true, "new record (no baseline)".to_string());
            continue;
        };
        for arm in &base.arms {
            let Some(fresh_arm) = now.arm(&arm.name) else {
                check(now, false, format!("arm {} missing", arm.name));
                continue;
            };
            let (was, is) = (arm.figure(), fresh_arm.figure());
            let ratio = is / was;
            let detail = format!(
                "{} {was:.1} -> {is:.1} ns/round ({ratio:.3}x, max {MAX_SLOWDOWN}x)",
                arm.name
            );
            check(now, ratio <= MAX_SLOWDOWN, detail);
            let (was, is) = (arm.limit, fresh_arm.limit);
            if was.is_some_and(|was| is.is_none_or(|is| is > was)) {
                let [was, is] = [was, is].map(|l| l.map_or("absent".into(), |l| l.to_string()));
                let detail = format!("limit {}/{} loosened: {was} -> {is}", arm.name, now.base);
                check(now, false, detail);
            }
        }
        let show = |v: Option<&JsonValue>| v.map_or("absent".to_string(), JsonValue::to_string);
        let mut differing: Vec<&String> = Vec::new();
        for (key, _) in base.outcome.iter().chain(&now.outcome) {
            if base.field(key) != now.field(key) && !differing.contains(&key) {
                differing.push(key);
            }
        }
        for key in &differing {
            let (was, is) = (show(base.field(key)), show(now.field(key)));
            check(now, false, format!("outcome {key}: {was} -> {is}"));
        }
        if differing.is_empty() {
            check(
                now,
                true,
                format!("outcome: {} fields equal", now.outcome.len()),
            );
        }
    }
    for now in fresh {
        for (arm, limit) in now.arms.iter().filter_map(|a| Some((a, a.limit?))) {
            let ratio = now.ratio(arm);
            let detail = format!("limit {}/{} {ratio:.3} (max {limit})", arm.name, now.base);
            check(now, ratio <= limit, detail);
        }
    }
    for base in baseline
        .iter()
        .filter(|b| !fresh.iter().any(|f| f.same_identity(b)))
    {
        check(base, false, "missing from the fresh run".to_string());
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{field, ArmRecord};

    #[test]
    fn parser_rejects_trailing_garbage_and_syntax_errors() {
        assert!(parse_json("{\"a\": 1} extra").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn parser_handles_escapes_bools_and_nested_arrays() {
        let doc = parse_json("{\"s\": \"a\\\"b\\\\c\", \"t\": true, \"a\": [[1], []]}").unwrap();
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("a\"b\\c"));
        assert_eq!(doc.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("a").and_then(JsonValue::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let value = JsonValue::Obj(vec![
            ("s".into(), "a\"b\\c\n≥".into()),
            ("x".into(), JsonValue::Num(0.1)),
            ("none".into(), JsonValue::Null),
            (
                "deep".into(),
                JsonValue::Arr(vec![JsonValue::Obj(vec![(
                    "a".into(),
                    JsonValue::Arr(vec![1u64.into(), JsonValue::Bool(false)]),
                )])]),
            ),
        ]);
        assert_eq!(parse_json(&value.pretty()).unwrap(), value);
        assert_eq!(parse_json(&value.to_string()).unwrap(), value);
    }

    fn record(workload: &str, enum_ns: f64, sends: u64) -> BenchRecord {
        let arm = |name: &str, ns: f64, limit| ArmRecord {
            name: name.into(),
            ns_per_round: vec![ns, ns * 1.1],
            limit,
        };
        BenchRecord {
            series: "engine".into(),
            workload: workload.into(),
            n: 65,
            k: None,
            rounds: 4000,
            base: "enum".into(),
            arms: vec![arm("enum", enum_ns, None), arm("boxed", 2000.0, Some(2.5))],
            outcome: vec![field("completion_round", 11u64), field("sends", sends)],
            peak_rss_kb: None,
        }
    }

    /// Each broken rule fails alone, and naming the right record and check.
    #[test]
    fn each_broken_rule_fails_alone() {
        let baseline = [
            record("dense-flooding", 1000.0, 500),
            record("er_dual-flooding-collision-seeker", 1000.0, 80),
        ];
        let mut limited = baseline.clone();
        limited[0].arms[1].limit = Some(1.9);
        let (mut loosened, mut dropped) = (baseline.clone(), baseline.clone());
        loosened[0].arms[1].limit = Some(3.0);
        dropped[0].arms[1].limit = None;
        let cases = [
            (
                vec![record("dense-flooding", 1300.0, 500), baseline[1].clone()],
                "enum 1000.0 -> 1300.0 ns/round (1.300x, max 1.25x)",
            ),
            (
                vec![record("dense-flooding", 1000.0, 501), baseline[1].clone()],
                "outcome sends: 500 -> 501",
            ),
            (limited.to_vec(), "limit boxed/enum 2.000 (max 1.9)"),
            (loosened.to_vec(), "limit boxed/enum loosened: 2.5 -> 3"),
            (dropped.to_vec(), "limit boxed/enum loosened: 2.5 -> absent"),
            (baseline[..1].to_vec(), "missing from the fresh run"),
        ];
        for (fresh, expected) in cases {
            let failed: Vec<Check> = compare(&baseline, &fresh)
                .into_iter()
                .filter(|c| !c.passed)
                .collect();
            assert_eq!(failed.len(), 1, "{expected}: {failed:?}");
            assert_eq!(failed[0].detail, expected);
        }
        let missing = compare(&baseline, &baseline[..1]);
        assert!(missing
            .iter()
            .any(|c| !c.passed && c.record.contains("seeker")));
    }

    #[test]
    fn an_unchanged_run_a_new_record_and_a_faster_arm_pass() {
        let baseline = [record("dense-flooding", 1000.0, 500)];
        assert!(compare(&baseline, &baseline).iter().all(|c| c.passed));
        let fresh = [
            record("dense-flooding", 900.0, 500),
            record("brand-new-workload", 9999.0, 1),
        ];
        let checks = compare(&baseline, &fresh);
        assert!(checks.iter().all(|c| c.passed), "{checks:?}");
        assert!(checks
            .iter()
            .any(|c| c.detail == "new record (no baseline)" && c.record.contains("brand-new")));
    }
}
