//! dualgraph-analyzer: a workspace invariant analyzer.
//!
//! Statically enforces the source-level rules the differential suites
//! only test dynamically: determinism of engine-reachable code, zero
//! allocation on declared hot paths, the `Adversary`/`inject`/`Clone`
//! contracts, and panic hygiene in library crates. See docs/ANALYSIS.md
//! for lint classes, configuration, and the waiver syntax.
//!
//! The crate is self-contained: a hand-rolled lexer ([`lexer`]), a
//! structural token scanner ([`scanner`]), a TOML-subset config loader
//! ([`config`]), waiver comments ([`waiver`]), the lints themselves
//! ([`lints`]), and JSON report emission ([`report`]).

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scanner;
pub mod waiver;

use std::collections::BTreeSet;

use config::Config;
use lints::Violation;

/// One finding after waiver resolution: a violation plus whether an
/// inline `// analyzer: allow(...)` with a reason covers it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint identifier.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// `true` when a valid waiver covers this finding.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub reason: Option<String>,
}

/// `true` when `path` (workspace-relative, `/`-separated) starts with
/// any of the given prefixes.
fn under_any(path: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| path == p || path.starts_with(&format!("{}/", p.trim_end_matches('/'))))
}

/// Analyzes one source file. `rel_path` routes path-scoped lints
/// (determinism, panic hygiene); the contract and hot-path lints run on
/// every file. Returns findings with waivers already resolved.
pub fn analyze_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let model = scanner::scan(&lexed);

    let mut violations: Vec<Violation> = Vec::new();
    if under_any(rel_path, &cfg.determinism_paths) {
        violations.extend(lints::determinism(&lexed.toks, &model));
    }
    violations.extend(lints::hot_alloc(&lexed.toks, &model, cfg));
    violations.extend(lints::adversary_append(&lexed.toks, &model));
    violations.extend(lints::inject_discard(&lexed.toks, &model));
    violations.extend(lints::clone_fields(&lexed.toks, &model));
    if under_any(rel_path, &cfg.panic_paths) {
        violations.extend(lints::panic_hygiene(&lexed.toks, &model));
        if cfg.index_bound_comments {
            violations.extend(lints::index_bound(&lexed.toks, &model, &lexed.comments));
        }
    }

    // Resolve waivers.
    let mut code_lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
    code_lines.dedup();
    let waivers = waiver::collect(&lexed, &code_lines);

    let mut findings: Vec<Finding> = violations
        .into_iter()
        .map(|v| {
            let reason = waivers.lookup(v.line, v.lint).map(str::to_string);
            Finding {
                file: rel_path.to_string(),
                line: v.line,
                lint: v.lint,
                message: v.message,
                waived: reason.is_some(),
                reason,
            }
        })
        .collect();

    // Waivers with no reason are violations in their own right, and are
    // themselves unwaivable.
    for w in &waivers.missing_reason {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: w.comment_line,
            lint: lints::WAIVER_MISSING_REASON,
            message: format!(
                "waiver for {} has no reason; `// analyzer: allow(<lint>, reason = \"...\")` \
                 requires one",
                w.lints
                    .iter()
                    .map(|l| format!("`{}`", l))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            waived: false,
            reason: None,
        });
    }

    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

/// One [`lints::HOT_STALE`] finding per `[hot].functions` entry that names
/// no function of `sources` outside test code: a deleted or renamed hot
/// function would otherwise drop out of the hot-alloc lint silently. The
/// findings point at `analyzer.toml`, on the entry's line of `cfg_text`
/// (line 0 when it is not found there), and cannot be waived.
pub fn stale_hot_entries(sources: &[&str], cfg: &Config, cfg_text: &str) -> Vec<Finding> {
    let mut defined = BTreeSet::new();
    for src in sources {
        let lexed = lexer::lex(src);
        let model = scanner::scan(&lexed);
        for f in model.fns.iter().filter(|f| !model.in_test(f.body.start)) {
            defined.insert(f.qualified_name());
            defined.insert(f.name.clone());
        }
    }
    cfg.hot_functions
        .iter()
        .filter(|h| !defined.contains(h.as_str()))
        .map(|h| Finding {
            file: "analyzer.toml".to_string(),
            line: cfg_text
                .lines()
                .position(|l| l.contains(&format!("\"{h}\"")))
                .map_or(0, |i| i as u32 + 1),
            lint: lints::HOT_STALE,
            message: format!(
                "[hot] entry `{h}` names no function in the scanned files: \
                 update it to the function's current name or remove it"
            ),
            waived: false,
            reason: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            determinism_paths: vec!["crates/sim/src".into()],
            panic_paths: vec!["crates/sim/src".into()],
            hot_functions: vec!["Executor::step".into()],
            ..Config::default()
        }
    }

    #[test]
    fn path_routing_scopes_determinism() {
        let src = "use std::collections::HashMap;";
        assert_eq!(analyze_source("crates/sim/src/x.rs", src, &cfg()).len(), 1);
        assert!(analyze_source("crates/bench/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn prefix_matching_is_path_component_aware() {
        // `crates/sim/src-extra` must not match the `crates/sim/src` prefix.
        let src = "use std::collections::HashMap;";
        assert!(analyze_source("crates/sim/src-extra/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn waived_finding_is_reported_but_not_fatal() {
        let src = "use std::collections::HashMap; // analyzer: allow(determinism, reason = \"membership only\")";
        let fs = analyze_source("crates/sim/src/x.rs", src, &cfg());
        assert_eq!(fs.len(), 1);
        assert!(fs[0].waived);
        assert_eq!(fs[0].reason.as_deref(), Some("membership only"));
    }

    #[test]
    fn waiver_without_reason_raises_its_own_violation() {
        let src = "use std::collections::HashMap; // analyzer: allow(determinism)";
        let fs = analyze_source("crates/sim/src/x.rs", src, &cfg());
        // The determinism finding stays unwaived AND the bad waiver is
        // flagged.
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().any(|f| f.lint == "determinism" && !f.waived));
        assert!(fs.iter().any(|f| f.lint == "waiver-missing-reason"));
    }

    #[test]
    fn contract_lints_run_everywhere() {
        let src = "fn f(e: &mut E) { e.inject(n, p); }";
        let fs = analyze_source("crates/bench/src/x.rs", src, &cfg());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].lint, "inject-discard");
    }
}
