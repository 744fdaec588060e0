//! `--bench-compare`: diff a fresh engine run against the checked-in
//! `BENCH_engine.json` baseline and flag per-series regressions.
//!
//! The comparison is deliberately narrow: it re-times only the
//! `enum_ns_per_round` series of the engine section (every
//! [`ENGINE_WORKLOADS`][crate::engine_bench::ENGINE_WORKLOADS] row at each
//! [`BENCH_SIZES`][crate::engine_bench::BENCH_SIZES] entry), because that
//! is the one series with a stable definition across every schema
//! revision and the one the headline speedup claims rest on.
//! A fresh measurement more than `threshold ×` the baseline (default
//! [`DEFAULT_THRESHOLD`] = 1.25, i.e. >25% slower) is a regression.
//!
//! The environment has no serde, so the baseline document is read with
//! the minimal recursive-descent JSON parser below — it accepts exactly
//! the value grammar `BENCH_engine.json` uses (objects, arrays, strings
//! without exotic escapes, numbers, booleans, null) and rejects the rest
//! loudly rather than guessing.

use std::fmt;

use crate::engine_bench::{self, Dispatch, BENCH_SIZES, ENGINE_WORKLOADS};

/// Default regression threshold: fresh > 1.25× baseline flags the series.
pub const DEFAULT_THRESHOLD: f64 = 1.25;

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
}

/// A parse failure, with the byte offset where parsing gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected there.
    pub expected: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, expected: &'static str) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            at: self.pos,
            expected,
        })
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

    fn expect_literal(&mut self, lit: &'static str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err("a JSON literal")
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                    // Consume one UTF-8 scalar (the input came from a &str,
                    // so boundaries are sound).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| {
                        JsonParseError {
                            at: self.pos,
                            expected: "valid UTF-8",
                        }
                    })?;
                    let c = rest.chars().next().ok_or(JsonParseError {
                        at: self.pos,
                        expected: "a character",
                    })?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, JsonParseError> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or(JsonParseError {
                at: start,
                expected: "a number",
            })
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
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
/// Returns the byte offset and expectation of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
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
// Baseline extraction + comparison
// ---------------------------------------------------------------------------

/// One `(workload, n) → ns/round` point of the engine series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Workload name (e.g. `"dense-flooding"`).
    pub workload: String,
    /// Network size.
    pub n: u64,
    /// Enum-dispatch nanoseconds per round.
    pub ns_per_round: f64,
}

/// Why a baseline document could not be compared against.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareError {
    /// The document is not valid JSON.
    Parse(JsonParseError),
    /// The document's `schema` field is missing or not this build's
    /// [`BENCH_SCHEMA`][crate::BENCH_SCHEMA].
    SchemaMismatch {
        /// What the document declared (empty if absent).
        found: String,
    },
    /// The document has no `measurements` section, or an entry is missing
    /// one of `workload` / `n` / `enum_ns_per_round`.
    MalformedMeasurements,
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Parse(e) => write!(f, "baseline is not valid JSON: {e}"),
            CompareError::SchemaMismatch { found } => write!(
                f,
                "baseline schema {found:?} does not match this build's {:?} — \
                 regenerate the snapshot before comparing",
                crate::BENCH_SCHEMA
            ),
            CompareError::MalformedMeasurements => {
                write!(f, "baseline has no usable engine `measurements` section")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Reads the engine series out of a `BENCH_engine.json` document,
/// refusing documents from a different schema revision (their series
/// definitions may not be comparable).
///
/// # Errors
///
/// [`CompareError`] on syntax, schema, or shape problems.
pub fn extract_engine_series(text: &str) -> Result<Vec<SeriesPoint>, CompareError> {
    let doc = parse_json(text).map_err(CompareError::Parse)?;
    let found = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    if found != crate::BENCH_SCHEMA {
        return Err(CompareError::SchemaMismatch { found });
    }
    let entries = doc
        .get("measurements")
        .and_then(JsonValue::as_arr)
        .ok_or(CompareError::MalformedMeasurements)?;
    let mut series = Vec::with_capacity(entries.len());
    for entry in entries {
        let workload = entry
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(CompareError::MalformedMeasurements)?
            .to_string();
        let n = entry
            .get("n")
            .and_then(JsonValue::as_num)
            .ok_or(CompareError::MalformedMeasurements)? as u64;
        let ns_per_round = entry
            .get("enum_ns_per_round")
            .and_then(JsonValue::as_num)
            .ok_or(CompareError::MalformedMeasurements)?;
        series.push(SeriesPoint {
            workload,
            n,
            ns_per_round,
        });
    }
    Ok(series)
}

/// A matched baseline/fresh pair for one series point.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Workload name.
    pub workload: String,
    /// Network size.
    pub n: u64,
    /// Baseline ns/round (from the checked-in snapshot).
    pub baseline_ns: f64,
    /// Fresh ns/round (measured now).
    pub fresh_ns: f64,
}

impl ComparisonRow {
    /// `fresh ÷ baseline` — above 1.0 means the fresh run is slower.
    pub fn ratio(&self) -> f64 {
        self.fresh_ns / self.baseline_ns
    }

    /// Whether this series regressed past `threshold`.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio() > threshold
    }
}

/// Joins baseline and fresh series on `(workload, n)`; points present on
/// only one side are skipped (a resized `BENCH_SIZES` should not fail the
/// gate, it should regenerate the snapshot).
pub fn compare_series(baseline: &[SeriesPoint], fresh: &[SeriesPoint]) -> Vec<ComparisonRow> {
    fresh
        .iter()
        .filter_map(|f| {
            baseline
                .iter()
                .find(|b| b.workload == f.workload && b.n == f.n)
                .map(|b| ComparisonRow {
                    workload: f.workload.clone(),
                    n: f.n,
                    baseline_ns: b.ns_per_round,
                    fresh_ns: f.ns_per_round,
                })
        })
        .collect()
}

/// Re-times the enum-dispatch engine series (every [`ENGINE_WORKLOADS`]
/// row per [`BENCH_SIZES`] size) with the same measurement discipline
/// `--bench-engine` uses ([`engine_bench::best_of`]).
pub fn fresh_engine_series() -> Vec<SeriesPoint> {
    let mut series = Vec::with_capacity(BENCH_SIZES.len() * ENGINE_WORKLOADS.len());
    for &n in &BENCH_SIZES {
        let net = engine_bench::workload_network(n);
        let rounds = engine_bench::bench_rounds_for(n);
        for (workload, measure) in ENGINE_WORKLOADS {
            let m = engine_bench::best_of(|| measure(&net, rounds, Dispatch::Enum));
            series.push(SeriesPoint {
                workload: workload.to_string(),
                n: n as u64,
                ns_per_round: m.ns_per_round(),
            });
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(schema: &str) -> String {
        format!(
            concat!(
                "{{\n  \"schema\": \"{}\",\n  \"peak_rss_kb\": null,\n",
                "  \"measurements\": [\n",
                "    {{\"workload\": \"dense-flooding\", \"n\": 65, \"rounds\": 4000,\n",
                "     \"enum_ns_per_round\": 1234.5, \"speedup_enum_vs_boxed\": 1.10}},\n",
                "    {{\"workload\": \"er_dual-chatter-random0.5\", \"n\": 257,\n",
                "     \"enum_ns_per_round\": 900.0}}\n",
                "  ]\n}}\n"
            ),
            schema
        )
    }

    #[test]
    fn parser_handles_the_bench_grammar() {
        let doc = parse_json(&fixture(crate::BENCH_SCHEMA)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(crate::BENCH_SCHEMA)
        );
        assert_eq!(doc.get("peak_rss_kb"), Some(&JsonValue::Null));
        let entries = doc.get("measurements").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0]
                .get("enum_ns_per_round")
                .and_then(JsonValue::as_num),
            Some(1234.5)
        );
    }

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
    fn extract_reads_the_engine_series() {
        let series = extract_engine_series(&fixture(crate::BENCH_SCHEMA)).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].workload, "dense-flooding");
        assert_eq!(series[0].n, 65);
        assert_eq!(series[0].ns_per_round, 1234.5);
    }

    #[test]
    fn extract_rejects_foreign_schemas() {
        let err = extract_engine_series(&fixture("dualgraph-bench-engine/1")).unwrap_err();
        assert_eq!(
            err,
            CompareError::SchemaMismatch {
                found: "dualgraph-bench-engine/1".to_string()
            }
        );
    }

    #[test]
    fn compare_flags_only_past_threshold_regressions() {
        let baseline = vec![
            SeriesPoint {
                workload: "dense-flooding".into(),
                n: 65,
                ns_per_round: 1000.0,
            },
            SeriesPoint {
                workload: "dense-flooding".into(),
                n: 257,
                ns_per_round: 1000.0,
            },
        ];
        let fresh = vec![
            SeriesPoint {
                workload: "dense-flooding".into(),
                n: 65,
                ns_per_round: 1200.0, // 1.20× — within a 1.25 threshold
            },
            SeriesPoint {
                workload: "dense-flooding".into(),
                n: 257,
                ns_per_round: 1300.0, // 1.30× — regression
            },
            SeriesPoint {
                workload: "brand-new-workload".into(),
                n: 65,
                ns_per_round: 9999.0, // no baseline → skipped, not failed
            },
        ];
        let rows = compare_series(&baseline, &fresh);
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].regressed(DEFAULT_THRESHOLD));
        assert!(rows[1].regressed(DEFAULT_THRESHOLD));
        assert!((rows[1].ratio() - 1.3).abs() < 1e-9);
    }
}
