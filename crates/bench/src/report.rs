//! Plain-text tables and CSV output for the experiment harness.

use std::fmt::Write as _;
use std::path::Path;

/// A printable experiment table (one per paper artifact).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. `"Theorem 2: worst-case bridge assignment"`).
    pub title: String,
    /// Free-text note shown under the title (paper reference, expected
    /// shape).
    pub note: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, note: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            note: note.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        if !self.note.is_empty() {
            let _ = writeln!(out, "   {}", self.note);
        }
        let head: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "   {}", head.join("  "));
        let _ = writeln!(
            out,
            "   {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "   {}", line.join("  "));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV into `dir/name.csv`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), self.to_csv())
    }

    /// Renders a GitHub-flavored markdown table (pipe syntax; pipes in
    /// cells are escaped).
    pub fn to_markdown(&self) -> String {
        fn esc(cell: &str) -> String {
            cell.replace('|', "\\|")
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        if !self.note.is_empty() {
            let _ = writeln!(out, "\n{}", self.note);
        }
        let _ = writeln!(out);
        let head: Vec<String> = self.columns.iter().map(|c| esc(c)).collect();
        let _ = writeln!(out, "| {} |", head.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }
}

/// Escapes a string for a JSON string literal (quotes, backslashes, and
/// control characters).
pub(crate) fn json_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full experiment suite as one markdown report document.
///
/// The output is a pure function of the tables: no timestamps, no
/// wall-clock timings, no environment strings. Two runs of the same
/// deterministic experiments produce byte-identical reports; a test pins
/// the line count and digest of every table's report at
/// [`Scale::Quick`][crate::workloads::Scale::Quick].
pub fn render_markdown_report(experiments: &[(&str, Table)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# dualgraph experiment report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Schema `{}` — {} experiment(s). Deterministic: regenerate with \
         `experiments --report md PATH`; bytes must not change for a fixed \
         code revision.",
        crate::BENCH_SCHEMA,
        experiments.len()
    );
    for (name, table) in experiments {
        let _ = writeln!(out);
        let _ = writeln!(out, "<!-- experiment: {name} -->");
        out.push_str(&table.to_markdown());
    }
    out
}

/// Renders the full experiment suite as one JSON report document
/// (schema-tagged; same determinism contract as
/// [`render_markdown_report`]).
pub fn render_json_report(experiments: &[(&str, Table)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{}\",", crate::BENCH_SCHEMA);
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, (name, table)) in experiments.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_esc(name));
        let _ = writeln!(out, "      \"title\": \"{}\",", json_esc(&table.title));
        let _ = writeln!(out, "      \"note\": \"{}\",", json_esc(&table.note));
        let _ = writeln!(
            out,
            "      \"columns\": [{}],",
            table
                .columns
                .iter()
                .map(|c| format!("\"{}\"", json_esc(c)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "      \"rows\": [");
        for (j, row) in table.rows.iter().enumerate() {
            let cells = row
                .iter()
                .map(|c| format!("\"{}\"", json_esc(c)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "        [{cells}]{}",
                if j + 1 < table.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < experiments.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", "a note", &["n", "rounds"]);
        t.row(vec!["8".into(), "123".into()]);
        t.row(vec!["128".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a note"));
        assert!(s.contains("  8"));
        assert!(s.contains("128"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", "", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("demo", "", &["x", "y"]);
        t.row(vec!["a,b".into(), "q\"t".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"t\""));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("dualgraph-report-test");
        let mut t = Table::new("demo", "", &["x"]);
        t.row(vec!["1".into()]);
        t.write_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(content, "x\n1\n");
    }

    #[test]
    fn markdown_table_escapes_pipes() {
        let mut t = Table::new("demo", "a note", &["n", "what"]);
        t.row(vec!["8".into(), "a|b".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### demo\n"));
        assert!(md.contains("a note"));
        assert!(md.contains("| n | what |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("a\\|b"));
    }

    #[test]
    fn json_report_is_parseable_and_escaped() {
        let mut t = Table::new("demo \"quoted\"", "note\nwith newline", &["x"]);
        t.row(vec!["a\\b".into()]);
        let json = render_json_report(&[("demo", t)]);
        let doc = crate::compare::parse_json(&json).expect("report JSON parses");
        assert_eq!(
            doc.get("schema")
                .and_then(crate::compare::JsonValue::as_str),
            Some(crate::BENCH_SCHEMA)
        );
        let exps = doc
            .get("experiments")
            .and_then(crate::compare::JsonValue::as_arr)
            .unwrap();
        assert_eq!(exps.len(), 1);
        assert_eq!(
            exps[0]
                .get("title")
                .and_then(crate::compare::JsonValue::as_str),
            Some("demo \"quoted\"")
        );
        assert_eq!(
            exps[0]
                .get("note")
                .and_then(crate::compare::JsonValue::as_str),
            Some("note\nwith newline")
        );
    }

    /// The `--report` acceptance bar: with a fixed code revision and
    /// seed, rendering the same experiment twice produces byte-identical
    /// markdown and JSON. Tables carry simulation results only (timings
    /// are printed outside tables), so any nondeterminism here is a real
    /// engine regression.
    #[test]
    fn reports_are_byte_identical_across_runs() {
        use crate::workloads::Scale;
        let (name, runner) = crate::experiments::all()
            .into_iter()
            .next()
            .expect("at least one experiment");
        let a = runner(Scale::Quick);
        let b = runner(Scale::Quick);
        let md_a = render_markdown_report(&[(name, a.clone())]);
        let md_b = render_markdown_report(&[(name, b.clone())]);
        assert_eq!(md_a.as_bytes(), md_b.as_bytes(), "markdown report drifted");
        let json_a = render_json_report(&[(name, a)]);
        let json_b = render_json_report(&[(name, b)]);
        assert_eq!(json_a.as_bytes(), json_b.as_bytes(), "json report drifted");
    }

    /// Every table of `experiments --quick --report md`, pinned by the
    /// report's line count and FNV-1a 64 digest: a change to any seeded
    /// result of any table fails here.
    #[test]
    fn quick_report_is_pinned() {
        use crate::workloads::Scale;
        let tables: Vec<(&str, Table)> = crate::experiments::all()
            .into_iter()
            .map(|(name, runner)| (name, runner(Scale::Quick)))
            .collect();
        let md = render_markdown_report(&tables);
        let digest = md.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((md.lines().count(), digest), (240, 0xe395_e4be_783a_fec6));
    }
}
