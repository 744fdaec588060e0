//! CLI entry point: walk the workspace, run every lint, check that every
//! `[hot].functions` entry names a function, print findings, write the
//! JSON report, and exit nonzero on any unwaived violation.
//!
//! Usage: `cargo run -p dualgraph-analyzer [-- --report PATH] [--quiet]`
//!
//! The workspace root is found by ascending from the current directory
//! to the first parent containing `analyzer.toml`.

#![forbid(unsafe_code)]

use dualgraph_analyzer::{analyze_source, config::Config, report, stale_hot_entries, Finding};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut report_path = String::from("analyzer-report.json");
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => match args.next() {
                Some(p) => report_path = p,
                None => {
                    eprintln!("error: --report requires a path");
                    return ExitCode::from(2);
                }
            },
            "--quiet" => quiet = true,
            other => {
                eprintln!("error: unknown argument `{}`", other);
                eprintln!("usage: dualgraph-analyzer [--report PATH] [--quiet]");
                return ExitCode::from(2);
            }
        }
    }

    let root = match find_root() {
        Some(r) => r,
        None => {
            eprintln!("error: no analyzer.toml found in the current directory or any parent");
            return ExitCode::from(2);
        }
    };
    let cfg_text = match std::fs::read_to_string(root.join("analyzer.toml")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading analyzer.toml: {}", e);
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::from_toml(&cfg_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: analyzer.toml: {}", e);
            return ExitCode::from(2);
        }
    };

    let files = collect_files(&root, &cfg);
    let mut findings: Vec<Finding> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    for rel in &files {
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reading {}: {}", rel, e);
                return ExitCode::from(2);
            }
        };
        findings.extend(analyze_source(rel, &src, &cfg));
        sources.push(src);
    }
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    findings.extend(stale_hot_entries(&sources, &cfg, &cfg_text));

    let unwaived: Vec<&Finding> = findings.iter().filter(|f| !f.waived).collect();
    if !quiet {
        for f in &findings {
            if f.waived {
                continue;
            }
            println!("{}:{}: [{}] {}", f.file, f.line, f.lint, f.message);
        }
        let waived = findings.len() - unwaived.len();
        println!(
            "analyzer: {} files scanned, {} violation(s), {} waived",
            files.len(),
            unwaived.len(),
            waived,
        );
    }

    let json = report::to_json(files.len(), &findings);
    if let Err(e) = std::fs::write(&report_path, json) {
        eprintln!("error: writing {}: {}", report_path, e);
        return ExitCode::from(2);
    }

    if unwaived.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ascends from the current directory to the first parent holding
/// `analyzer.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("analyzer.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Directory names never descended into, independent of config:
/// integration tests, benches, and examples are exempt from all lints,
/// and build output is never source.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "target", ".git"];

/// Collects workspace-relative `.rs` paths under the include prefixes,
/// minus the exclude prefixes, sorted for deterministic report order.
fn collect_files(root: &Path, cfg: &Config) -> Vec<String> {
    let mut out = Vec::new();
    for inc in &cfg.include {
        walk(&root.join(inc), root, cfg, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn walk(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    // Sort entries so traversal (and any error messages) are stable.
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if cfg
            .exclude
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{}/", ex.trim_end_matches('/'))))
        {
            continue;
        }
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, root, cfg, out);
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
}
