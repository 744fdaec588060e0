//! The four lint classes: determinism, hot-path allocation, engine
//! contracts, and panic hygiene. Each lint is a pure function from the
//! lexed/scanned model to violations; waiver handling and path routing
//! live in the caller.

use crate::config::Config;
use crate::lexer::{Comment, Tok, TokKind};
use crate::scanner::Model;

/// Lint identifier for the determinism class.
pub const DETERMINISM: &str = "determinism";
/// Lint identifier for the hot-path allocation class.
pub const HOT_ALLOC: &str = "hot-alloc";
/// Lint identifier for a `[hot].functions` entry that names no function
/// (unwaivable: it is reported against `analyzer.toml`).
pub const HOT_STALE: &str = "hot-stale";
/// Lint identifier for the adversary scratch-buffer contract.
pub const ADVERSARY_APPEND: &str = "adversary-append";
/// Lint identifier for discarded `inject` results.
pub const INJECT_DISCARD: &str = "inject-discard";
/// Lint identifier for manual `Clone` impls missing fields.
pub const CLONE_FIELDS: &str = "clone-fields";
/// Lint identifier for the panic-hygiene class.
pub const PANIC: &str = "panic";
/// Lint identifier for indexing without a bound comment.
pub const INDEX_BOUND: &str = "index-bound";
/// Lint identifier for waivers with no reason (unwaivable).
pub const WAIVER_MISSING_REASON: &str = "waiver-missing-reason";

/// Every lint identifier the analyzer knows, for docs and validation.
pub const ALL_LINTS: &[&str] = &[
    DETERMINISM,
    HOT_ALLOC,
    HOT_STALE,
    ADVERSARY_APPEND,
    INJECT_DISCARD,
    CLONE_FIELDS,
    PANIC,
    INDEX_BOUND,
    WAIVER_MISSING_REASON,
];

/// One raw violation, before waiver resolution.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which lint fired.
    pub lint: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

fn push_once(out: &mut Vec<Violation>, lint: &'static str, line: u32, message: String) {
    // One finding per (lint, line): `HashMap<K, V>` should read as one
    // violation, not one per token.
    if out.iter().any(|v| v.lint == lint && v.line == line) {
        return;
    }
    out.push(Violation {
        lint,
        line,
        message,
    });
}

// ---------------------------------------------------------------------------
// (1) determinism
// ---------------------------------------------------------------------------

/// Type and function names whose presence in engine-reachable code makes
/// behavior depend on hasher seeds, wall clocks, or ambient entropy.
const NONDETERMINISTIC_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "HashMap iteration order is seed-dependent; use a sorted Vec key map or BTreeMap",
    ),
    (
        "HashSet",
        "HashSet iteration order is seed-dependent; use a sorted Vec or BTreeSet",
    ),
    (
        "SystemTime",
        "wall-clock time is nondeterministic across runs",
    ),
    (
        "Instant",
        "monotonic clock reads are nondeterministic across runs",
    ),
    (
        "thread_rng",
        "ambient thread-local entropy breaks seeded reproducibility",
    ),
    (
        "from_entropy",
        "OS entropy seeding breaks seeded reproducibility",
    ),
    ("OsRng", "OS entropy breaks seeded reproducibility"),
    ("getrandom", "OS entropy breaks seeded reproducibility"),
];

/// Flags nondeterminism sources in engine-reachable code: hash-order
/// collections, clocks, ambient entropy, and pointer-value ordering.
pub fn determinism(toks: &[Tok], model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if model.in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        if let Some((_, why)) = NONDETERMINISTIC_IDENTS.iter().find(|(n, _)| *n == t.text) {
            push_once(
                &mut out,
                DETERMINISM,
                t.line,
                format!("`{}`: {}", t.text, why),
            );
            continue;
        }
        // Pointer-based ordering: `.as_ptr()` used as a sort/cmp key.
        if t.text == "as_ptr" && i > 0 && toks[i - 1].is_punct(".") {
            push_once(
                &mut out,
                DETERMINISM,
                t.line,
                "`.as_ptr()`: pointer values vary per run; never order or hash by address"
                    .to_string(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// (2) hot-path allocation
// ---------------------------------------------------------------------------

/// Flags allocating constructs inside the configured hot-function set.
/// Hot loops must reuse caller-owned scratch buffers; any `Vec`/`Box`/
/// `String` construction or `collect` in them is a per-round allocation.
pub fn hot_alloc(toks: &[Tok], model: &Model, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &model.fns {
        let qname = f.qualified_name();
        let is_hot = cfg
            .hot_functions
            .iter()
            .any(|h| *h == qname || *h == f.name);
        if !is_hot {
            continue;
        }
        let body = &toks[f.body.clone()];
        for (i, t) in body.iter().enumerate() {
            let msg = |what: &str| {
                format!(
                    "{} in hot function `{}`: hot paths must reuse scratch buffers",
                    what, qname
                )
            };
            // `Vec::new`, `Vec::with_capacity`, `Box::new`,
            // `String::new`, `String::from`, `String::with_capacity`.
            if t.kind == TokKind::Ident
                && (t.text == "Vec" || t.text == "Box" || t.text == "String")
                && body.get(i + 1).is_some_and(|n| n.is_punct(":"))
                && body.get(i + 2).is_some_and(|n| n.is_punct(":"))
            {
                if let Some(m) = body.get(i + 3) {
                    if m.is_ident("new") || m.is_ident("with_capacity") || m.is_ident("from") {
                        push_once(
                            &mut out,
                            HOT_ALLOC,
                            t.line,
                            msg(&format!("`{}::{}`", t.text, m.text)),
                        );
                    }
                }
                continue;
            }
            // `vec!` / `format!` macros.
            if (t.is_ident("vec") || t.is_ident("format"))
                && body.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                push_once(&mut out, HOT_ALLOC, t.line, msg(&format!("`{}!`", t.text)));
                continue;
            }
            // `.collect()`, `.to_vec()`, `.to_string()`, `.to_owned()`.
            if i > 0 && body[i - 1].is_punct(".") && t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "collect" | "to_vec" | "to_string" | "to_owned" => {
                        push_once(&mut out, HOT_ALLOC, t.line, msg(&format!("`.{}`", t.text)));
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// (3) contracts
// ---------------------------------------------------------------------------

/// Mutating methods that destroy previously-appended scratch contents.
const SCRATCH_DESTRUCTIVE: &[&str] = &[
    "clear",
    "truncate",
    "drain",
    "pop",
    "set_len",
    "remove",
    "swap_remove",
];

/// Flags `Adversary::unreliable_deliveries` impls that call destructive
/// methods on their output parameter. The engine batches several
/// adversaries into one scratch buffer per round; an impl that clears it
/// erases earlier adversaries' deliveries (the documented append-only
/// contract in docs/PERFORMANCE.md).
pub fn adversary_append(toks: &[Tok], model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &model.fns {
        if f.name != "unreliable_deliveries" || f.trait_name.as_deref() != Some("Adversary") {
            continue;
        }
        let Some(param) = last_param_name(&toks[f.params.clone()]) else {
            continue;
        };
        let body = &toks[f.body.clone()];
        for (i, t) in body.iter().enumerate() {
            if !t.is_ident(&param) {
                continue;
            }
            // `out.clear()` and friends.
            if body.get(i + 1).is_some_and(|n| n.is_punct(".")) {
                if let Some(m) = body.get(i + 2) {
                    if SCRATCH_DESTRUCTIVE.contains(&m.text.as_str()) {
                        push_once(
                            &mut out,
                            ADVERSARY_APPEND,
                            m.line,
                            format!(
                                "`{}.{}` in `{}::unreliable_deliveries`: the scratch buffer is \
                                 append-only (earlier adversaries' deliveries live in it)",
                                param,
                                m.text,
                                f.self_type.as_deref().unwrap_or("?"),
                            ),
                        );
                    }
                }
            }
            // Rebinding the buffer: `out = ...` / `*out = ...`.
            let next_is_assign = body.get(i + 1).is_some_and(|n| n.is_punct("="))
                && !body.get(i + 2).is_some_and(|n| n.is_punct("="));
            let prev_ok = i == 0
                || !matches!(
                    body[i - 1].text.as_str(),
                    "=" | "!" | "<" | ">" | "." | ":" | "&"
                )
                || body[i - 1].is_punct("*");
            if next_is_assign && prev_ok {
                push_once(
                    &mut out,
                    ADVERSARY_APPEND,
                    t.line,
                    format!(
                        "assignment to `{}` in `{}::unreliable_deliveries`: the scratch buffer \
                         is append-only",
                        param,
                        f.self_type.as_deref().unwrap_or("?"),
                    ),
                );
            }
        }
    }
    out
}

/// Extracts the last parameter name from a parameter token slice.
fn last_param_name(params: &[Tok]) -> Option<String> {
    let mut depth = 0usize;
    let mut last = None;
    let mut i = 0usize;
    while i < params.len() {
        let t = &params[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
            depth = depth.saturating_sub(1);
        } else if depth == 0
            && t.kind == TokKind::Ident
            && t.text != "self"
            && t.text != "mut"
            && params.get(i + 1).is_some_and(|n| n.is_punct(":"))
            && !params.get(i + 2).is_some_and(|n| n.is_punct(":"))
        {
            last = Some(t.text.clone());
        }
        i += 1;
    }
    last
}

/// Flags `.inject(...)` call statements whose `bool` result is dropped.
/// `inject` returns whether the payload was admitted; ignoring it hides
/// silently-rejected injections (full payload universe, crashed node).
pub fn inject_discard(toks: &[Tok], model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let hit = toks[i].is_ident("inject")
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !hit || model.in_test(i) {
            i += 1;
            continue;
        }
        // Find the matching `)`; a statement-position call ends `);`.
        let close = match matching_close(toks, i + 1) {
            Some(c) => c,
            None => {
                i += 1;
                continue;
            }
        };
        let followed_by_semi = toks.get(close + 1).is_some_and(|n| n.is_punct(";"));
        // `.inject(..)?;` or `.inject(..).then(..)` are consumed forms.
        if followed_by_semi && receiver_chain_starts_statement(toks, i - 1) {
            push_once(
                &mut out,
                INJECT_DISCARD,
                toks[i].line,
                "`inject` returns whether the payload was admitted; the bool must be consumed"
                    .to_string(),
            );
        }
        i = close + 1;
    }
    out
}

/// Index of the `)` matching the `(` at `open`.
fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Walks the receiver chain backwards from the `.` before a method call.
/// Returns `true` when the chain is rooted at statement position (the
/// token before it is `;`, `{`, or `}`), i.e. the call's value has
/// nowhere to go.
fn receiver_chain_starts_statement(toks: &[Tok], dot: usize) -> bool {
    let mut j = dot; // points at `.` (or later `:`) each iteration
    loop {
        if j == 0 {
            return false;
        }
        // Step to the end of the previous chain segment.
        j -= 1;
        match &toks[j] {
            t if t.kind == TokKind::Ident => {}
            t if t.is_punct(")") || t.is_punct("]") => {
                // Skip the balanced group backwards, then the callee ident.
                let open = if t.is_punct(")") { "(" } else { "[" };
                let close = &toks[j].text.clone();
                let mut depth = 0i64;
                loop {
                    let tj = &toks[j];
                    if tj.text == *close && tj.kind == TokKind::Punct {
                        depth += 1;
                    } else if tj.is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return false;
                    }
                    j -= 1;
                }
                // The group belongs to a call/index: step onto the ident.
                if j == 0 {
                    return false;
                }
                if toks[j - 1].kind == TokKind::Ident {
                    j -= 1;
                } else {
                    return false;
                }
            }
            _ => return false, // not a simple chain — value flows somewhere
        }
        // What precedes this segment?
        if j == 0 {
            return false;
        }
        let prev = &toks[j - 1];
        if prev.is_punct(".") || prev.is_punct(":") {
            j -= 1; // chain continues leftwards
            continue;
        }
        return prev.is_punct(";") || prev.is_punct("{") || prev.is_punct("}");
    }
}

/// Flags manual `impl Clone` blocks that never mention one or more fields
/// of the struct they clone. This is the PR 5 bug class: a field added to
/// the struct but not to the handwritten `clone`, silently resetting
/// state on every trial fork.
pub fn clone_fields(toks: &[Tok], model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    for s in &model.structs {
        if s.fields.is_empty() || s.derives_clone {
            continue;
        }
        for f in &model.fns {
            if f.name != "clone"
                || f.trait_name.as_deref() != Some("Clone")
                || f.self_type.as_deref() != Some(s.name.as_str())
            {
                continue;
            }
            let body = &toks[f.body.clone()];
            // `Self { field, ..x }` struct update covers the rest.
            let has_rest = body
                .windows(2)
                .any(|w| w[0].is_punct(".") && w[1].is_punct("."));
            if has_rest {
                continue;
            }
            let missing: Vec<&str> = s
                .fields
                .iter()
                .filter(|field| !body.iter().any(|t| t.is_ident(field)))
                .map(|f| f.as_str())
                .collect();
            if !missing.is_empty() {
                push_once(
                    &mut out,
                    CLONE_FIELDS,
                    f.line,
                    format!(
                        "manual `Clone` for `{}` never mentions field(s) {}: every field must \
                         be cloned or explicitly defaulted with a comment",
                        s.name,
                        missing
                            .iter()
                            .map(|m| format!("`{}`", m))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// (4) panic hygiene
// ---------------------------------------------------------------------------

/// Methods that panic on the unhappy path.
const PANICKY: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Flags `.unwrap()` / `.expect()` in library code outside tests.
/// Library panics in a simulation engine abort a whole trial batch;
/// recoverable paths must return errors, and genuinely-impossible cases
/// must carry a waiver stating the invariant.
pub fn panic_hygiene(toks: &[Tok], model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if model.in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        if PANICKY.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            push_once(
                &mut out,
                PANIC,
                t.line,
                format!(
                    "`.{}` in library code: return an error or waive with the invariant that \
                     makes this unreachable",
                    t.text
                ),
            );
        }
    }
    out
}

/// Flags indexing expressions (`x[i]`, `&x[a..b]`) with no `bound:`
/// comment on the same line. Config-gated (`panic.index_bound_comments`);
/// the comment documents why the index is in range.
pub fn index_bound(toks: &[Tok], model: &Model, comments: &[Comment]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct("[") || i == 0 || model.in_test(i) {
            continue;
        }
        let prev = &toks[i - 1];
        let is_index = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
            || prev.is_punct(")")
            || prev.is_punct("]");
        if !is_index {
            continue;
        }
        let documented = comments
            .iter()
            .any(|c| c.line == t.line && c.text.contains("bound:"));
        if !documented {
            push_once(
                &mut out,
                INDEX_BOUND,
                t.line,
                "indexing without a `bound:` comment documenting why it is in range".to_string(),
            );
        }
    }
    out
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, …).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "if" | "else" | "match" | "loop" | "while" | "move" | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scanner::scan;

    fn run<F>(src: &str, lint: F) -> Vec<Violation>
    where
        F: Fn(&[Tok], &Model) -> Vec<Violation>,
    {
        let lexed = lex(src);
        let model = scan(&lexed);
        lint(&lexed.toks, &model)
    }

    #[test]
    fn determinism_flags_hashmap_once_per_line() {
        let v = run(
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, HashMap<u32, u32>> = HashMap::new(); }",
            determinism,
        );
        assert_eq!(v.len(), 2); // line 1 (use) + line 2 (decl), deduped per line
        assert!(v.iter().all(|x| x.lint == DETERMINISM));
    }

    #[test]
    fn determinism_skips_tests() {
        let v = run(
            "#[cfg(test)] mod tests { use std::collections::HashSet; }",
            determinism,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn determinism_flags_as_ptr_method_only() {
        let v = run("fn f(s: &[u8]) { sort_by_key(s.as_ptr()); }", determinism);
        assert_eq!(v.len(), 1);
        let v2 = run("fn as_ptr() {}", determinism); // a definition, not a call
        assert!(v2.is_empty());
    }

    #[test]
    fn hot_alloc_fires_only_in_hot_functions() {
        let cfg = Config {
            hot_functions: vec!["Executor::step".into()],
            ..Config::default()
        };
        let src = "impl Executor { fn step(&mut self) { let v = Vec::new(); } \
                   fn cold(&mut self) { let v = Vec::new(); } }";
        let lexed = lex(src);
        let model = scan(&lexed);
        let v = hot_alloc(&lexed.toks, &model, &cfg);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("Executor::step"));
    }

    #[test]
    fn hot_alloc_catches_all_construct_forms() {
        let cfg = Config {
            hot_functions: vec!["hot".into()],
            ..Config::default()
        };
        let src = r#"fn hot() {
            let a = vec![1];
            let b: Vec<u32> = it.collect();
            let c = x.to_vec();
            let d = Box::new(1);
            let e = format!("x");
            let f = String::from("y");
            let g = s.to_string();
            let h = Vec::with_capacity(4);
        }"#;
        let lexed = lex(src);
        let model = scan(&lexed);
        let v = hot_alloc(&lexed.toks, &model, &cfg);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn adversary_append_flags_clear_and_assignment() {
        let src = "impl Adversary for Evil {\n\
                   fn unreliable_deliveries(&mut self, ctx: &Ctx, out: &mut Vec<NodeId>) {\n\
                   out.clear();\n out.push(x);\n }\n}";
        let v = run(src, adversary_append);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("out.clear"));
    }

    #[test]
    fn adversary_append_allows_push_and_extend() {
        let src = "impl Adversary for Good {\n\
                   fn unreliable_deliveries(&mut self, ctx: &Ctx, out: &mut Vec<NodeId>) {\n\
                   out.push(x); out.extend(ys); let n = out.len();\n }\n}";
        assert!(run(src, adversary_append).is_empty());
    }

    #[test]
    fn adversary_append_ignores_other_traits_and_fns() {
        let src = "impl Other for X { fn unreliable_deliveries(&mut self, out: &mut V) { out.clear(); } }\n\
                   impl Adversary for Y { fn setup(&mut self, out: &mut V) { out.clear(); } }";
        assert!(run(src, adversary_append).is_empty());
    }

    #[test]
    fn inject_discard_flags_bare_statement() {
        let v = run("fn f(e: &mut E) { e.inject(n, p); }", inject_discard);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn inject_discard_allows_consumed_results() {
        for src in [
            "fn f(e: &mut E) { let ok = e.inject(n, p); }",
            "fn f(e: &mut E) { if e.inject(n, p) { count += 1; } }",
            "fn f(e: &mut E) { assert!(e.inject(n, p)); }",
            "fn f(e: &mut E) -> bool { e.inject(n, p) }",
            "fn f(e: &mut E) { total += u32::from(e.inject(n, p)); }",
            "fn f(e: &mut E) { while e.inject(n, p) {} }",
        ] {
            assert!(run(src, inject_discard).is_empty(), "false positive: {src}");
        }
    }

    #[test]
    fn inject_discard_flags_chained_receiver_statement() {
        let v = run("fn f(s: &mut S) { s.exec().inject(n, p); }", inject_discard);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn clone_fields_flags_missing_field() {
        let src = "struct S { a: u32, real: bool }\n\
                   impl Clone for S { fn clone(&self) -> Self { S { a: self.a, real: false } } }\n\
                   struct T { x: u32, y: u32 }\n\
                   impl Clone for T { fn clone(&self) -> Self { T { x: self.x, y: 0 } } }";
        // S mentions both fields (even though `real` is defaulted — the
        // lint checks mention, the waiver documents deliberate resets);
        // T never mentions `y`... except it does (`y: 0`). Make it miss:
        let src2 = "struct T { x: u32, y: u32 }\n\
                   impl Clone for T { fn clone(&self) -> Self { T { x: self.x } } }";
        assert!(run(src, clone_fields).is_empty());
        let v = run(src2, clone_fields);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`y`"));
    }

    #[test]
    fn clone_fields_skips_derive_and_struct_update() {
        let src = "#[derive(Clone)] struct D { a: u32 }\n\
                   struct U { a: u32, b: u32 }\n\
                   impl Clone for U { fn clone(&self) -> Self { U { a: self.a, ..Default::default() } } }";
        assert!(run(src, clone_fields).is_empty());
    }

    #[test]
    fn panic_hygiene_flags_unwrap_outside_tests() {
        let src =
            "fn f(v: Vec<u32>) -> u32 {\n v.first().unwrap()\n + v.last().expect(\"ne\")\n }\n\
                   #[cfg(test)] mod t { fn g(v: Vec<u32>) { v.first().unwrap(); } }";
        let v = run(src, panic_hygiene);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn panic_hygiene_ignores_unwrap_or() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0) + v.unwrap_or_default() }";
        assert!(run(src, panic_hygiene).is_empty());
    }

    #[test]
    fn index_bound_requires_comment() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {\n\
                   v[i] // bound: i < v.len() checked by caller\n\
                   + v[i]\n}";
        let lexed = lex(src);
        let model = scan(&lexed);
        let v = index_bound(&lexed.toks, &model, &lexed.comments);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn index_bound_ignores_array_literals_and_attrs() {
        let src =
            "#[derive(Debug)]\nstruct S { a: [u32; 4] }\nfn f() -> [u32; 2] { return [1, 2]; }";
        let lexed = lex(src);
        let model = scan(&lexed);
        let v = index_bound(&lexed.toks, &model, &lexed.comments);
        assert!(v.is_empty(), "{v:?}");
    }
}
