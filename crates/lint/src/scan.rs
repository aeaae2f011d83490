//! The per-file scanner: context tracking (brace depth, `#[cfg(test)]`
//! spans, `// lint: hot-path` function bodies) and the three line-level
//! rule families. The fourth family (`unsafe-forbid`) is a whole-file
//! property checked by the workspace walker.

use crate::source::{sanitize, Line};
use crate::{DetScope, FileContext, Finding, Rule, TargetKind};

/// Allocation and formatting tokens banned inside `// lint: hot-path`
/// function bodies (the per-reference spine must stay allocation-free).
pub const HOT_PATH_BANNED: &[&str] = &[
    "Vec::new",
    "vec![",
    "Box::new",
    "format!",
    "String::from",
    ".to_vec()",
    ".collect()",
    ".collect::<",
    "HashMap",
];

/// Wall-clock, ambient-randomness, and host-threading tokens banned in
/// simulation crates (a simulated decision seeded from real time is
/// unreproducible, and ad-hoc thread pools order results by host
/// scheduling). Sanctioned uses — the sweep worker pool, the scenario
/// grid's pool — carry explicit `allowlist.txt` entries instead of a
/// scope-wide exemption.
pub const DET_BANNED: &[&str] = &[
    "std::time",
    "Instant",
    "SystemTime",
    "thread_rng",
    "std::thread",
    "thread::scope",
    "rayon",
];

/// Iteration adaptors that observe hash order when called on a
/// `HashMap`/`HashSet`.
const HASH_ITER: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
];

/// Scans one file's source text under the given context, appending
/// findings. Line numbers are 1-based.
pub fn scan_file(ctx: &FileContext, text: &str, out: &mut Vec<Finding>) {
    let lines = sanitize(text);
    let spans = ContextSpans::compute(&lines);
    let hash_idents = collect_hash_idents(&lines);

    for (idx, line) in lines.iter().enumerate() {
        if spans.in_test[idx] {
            continue; // tests are exempt from every line rule
        }
        let lineno = idx + 1;

        if spans.in_hot[idx] {
            for tok in HOT_PATH_BANNED {
                if line.code.contains(tok) {
                    out.push(Finding::new(
                        Rule::HotPathAlloc,
                        &ctx.rel_path,
                        lineno,
                        tok,
                        &line.code,
                        format!("`{tok}` inside a `// lint: hot-path` function body"),
                    ));
                }
            }
        }

        if ctx.determinism != DetScope::Off
            && matches!(ctx.target, TargetKind::Lib | TargetKind::Bin)
        {
            for tok in DET_BANNED {
                if contains_word(&line.code, tok) {
                    out.push(Finding::new(
                        Rule::Determinism,
                        &ctx.rel_path,
                        lineno,
                        tok,
                        &line.code,
                        format!("`{tok}` in simulation code (wall-clock/ambient RNG)"),
                    ));
                }
            }
            for ident in &hash_idents {
                if iterates_ident(&lines, idx, ident) {
                    out.push(Finding::new(
                        Rule::Determinism,
                        &ctx.rel_path,
                        lineno,
                        ident,
                        &line.code,
                        format!("iteration over `{ident}` (a HashMap/HashSet) observes hash order"),
                    ));
                }
            }
        }

        if ctx.target == TargetKind::Lib {
            for tok in [".unwrap()", ".expect(", "panic!"] {
                if panic_token_at(&line.code, tok) && !has_invariant(&lines, idx) {
                    out.push(Finding::new(
                        Rule::PanicPolicy,
                        &ctx.rel_path,
                        lineno,
                        tok,
                        &line.code,
                        format!("`{tok}` in library code without an adjacent `// INVARIANT:` justification"),
                    ));
                }
            }
        }
    }
}

/// Whether a crate-root source text carries `#![forbid(unsafe_code)]`
/// outside comments/strings.
pub fn has_unsafe_forbid(text: &str) -> bool {
    sanitize(text).iter().any(|l| {
        let squashed: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
        squashed.contains("#![forbid(unsafe_code)]")
    })
}

/// Per-line boolean context computed in one pass: `#[cfg(test)]` /
/// `#[test]` item spans and `// lint: hot-path` function bodies.
struct ContextSpans {
    in_test: Vec<bool>,
    in_hot: Vec<bool>,
}

impl ContextSpans {
    fn compute(lines: &[Line]) -> Self {
        let n = lines.len();
        let mut in_test = vec![false; n];
        let mut in_hot = vec![false; n];

        let mut depth: i64 = 0;
        // Open regions as (entry_depth, opened) — a region covers lines
        // while the brace depth stays above its entry depth.
        let mut test_region: Option<(i64, bool)> = None;
        let mut hot_region: Option<(i64, bool)> = None;
        // Attribute seen, waiting for the item's opening brace.
        let mut pending_test = false;
        // Annotation seen, waiting for the `fn` line.
        let mut pending_hot_comment = false;
        // `fn` line seen, waiting for `{` (multi-line signatures).
        let mut pending_hot_body = false;

        for (idx, line) in lines.iter().enumerate() {
            let code = line.code.trim();

            // The annotation must be the entire comment, so prose that
            // merely *mentions* the marker never arms the scanner.
            if line.comment.trim() == "lint: hot-path" {
                pending_hot_comment = true;
            }
            if code.contains("#[cfg(test") || code.starts_with("#[test]") {
                pending_test = true;
            }
            if pending_hot_comment && !code.is_empty() && !code.starts_with("#[") {
                if contains_word(code, "fn") {
                    pending_hot_body = true;
                }
                pending_hot_comment = false;
            }
            if code.contains(';') && !code.contains('{') {
                // A statement (e.g. `#[cfg(test)] use …;` or a trait
                // method declaration) consumes any pending attribute.
                pending_hot_body = false;
                pending_test = false;
            }

            let opens = line.code.matches('{').count() as i64;
            let closes = line.code.matches('}').count() as i64;
            let depth_after = depth + opens - closes;

            if opens > 0 {
                if pending_test && test_region.is_none() {
                    test_region = Some((depth, true));
                    pending_test = false;
                }
                if pending_hot_body && hot_region.is_none() {
                    hot_region = Some((depth, true));
                    pending_hot_body = false;
                }
            }

            if test_region.is_some() {
                in_test[idx] = true;
            }
            if hot_region.is_some() {
                in_hot[idx] = true;
            }

            if let Some((entry, _)) = test_region {
                if depth_after <= entry {
                    test_region = None;
                }
            }
            if let Some((entry, _)) = hot_region {
                if depth_after <= entry {
                    hot_region = None;
                }
            }
            depth = depth_after;
        }
        Self { in_test, in_hot }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file:
/// struct fields (`name: HashMap<…>`) and let-bindings
/// (`let mut name = HashSet::new()`), with or without the
/// `std::collections::` path prefix.
fn collect_hash_idents(lines: &[Line]) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for line in lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            for (pos, _) in code.match_indices(ty) {
                if let Some(ident) = binding_ident_before(code, pos) {
                    if !idents.contains(&ident) {
                        idents.push(ident);
                    }
                }
            }
        }
    }
    idents
}

/// Walks backwards from a `HashMap`/`HashSet` occurrence over an
/// optional path prefix and a `:` or `=` binder to the bound identifier.
fn binding_ident_before(code: &str, ty_pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = ty_pos;
    // Skip a `std::collections::`-style path prefix.
    loop {
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i >= 2 && &code[i - 2..i] == "::" {
            i -= 2;
            while i > 0 && is_ident_char(bytes[i - 1] as char) {
                i -= 1;
            }
        } else {
            break;
        }
    }
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i == 0 {
        return None;
    }
    let binder = bytes[i - 1] as char;
    if binder != ':' && binder != '=' {
        return None;
    }
    i -= 1;
    if binder == ':' && i > 0 && bytes[i - 1] == b':' {
        return None; // `::HashMap` path, not a type ascription
    }
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_char(bytes[i - 1] as char) {
        i -= 1;
    }
    let ident = &code[i..end];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident.to_string())
    }
}

/// Whether line `idx` iterates the tracked identifier: a direct
/// iteration-adaptor call, a `for … in` over it, or a method chain that
/// wraps onto the next line (`self.map\n    .iter()`).
fn iterates_ident(lines: &[Line], idx: usize, ident: &str) -> bool {
    let code = &lines[idx].code;
    for adaptor in HASH_ITER {
        let pat = format!("{ident}{adaptor}");
        if word_bounded(code, &pat) {
            return true;
        }
    }
    // Chained call broken across lines: `…ident` / `.adaptor()`.
    let trimmed = code.trim_end();
    if trimmed.ends_with(ident)
        && ends_at_word_boundary(trimmed, ident)
        && lines.get(idx + 1).is_some_and(|next| {
            HASH_ITER
                .iter()
                .any(|a| next.code.trim_start().starts_with(a))
        })
    {
        return true;
    }
    // `for x in ident` / `for (k, v) in &self.ident {`.
    if let Some(in_pos) = find_word(code, "in") {
        if contains_word(code, "for") {
            let tail = code[in_pos + 2..]
                .trim_start()
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim_start_matches("self.");
            if tail.starts_with(ident)
                && !tail[ident.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
            {
                return true;
            }
        }
    }
    false
}

/// Whether the `.unwrap()` / `.expect(` / `panic!` token occurs in code
/// position. Method tokens start with `.` and are self-delimiting
/// (`x.unwrap()` must match); for `panic!` the preceding char must not
/// be part of an identifier, so `dont_panic!()` never matches.
fn panic_token_at(code: &str, tok: &str) -> bool {
    if tok.starts_with('.') {
        return code.contains(tok);
    }
    code.match_indices(tok)
        .any(|(pos, _)| pos == 0 || !is_ident_char(code.as_bytes()[pos - 1] as char))
}

/// An adjacent justification: a comment containing `INVARIANT:` on the
/// same line or on one of the three preceding lines.
fn has_invariant(lines: &[Line], idx: usize) -> bool {
    (idx.saturating_sub(3)..=idx).any(|i| lines[i].comment.contains("INVARIANT:"))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Substring match with identifier-style word boundaries on both sides.
fn contains_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

fn find_word(code: &str, word: &str) -> Option<usize> {
    code.match_indices(word).map(|(p, _)| p).find(|&pos| {
        let before_ok = pos == 0 || !is_ident_char(code.as_bytes()[pos - 1] as char);
        let after = pos + word.len();
        let after_ok =
            after >= code.len() || !is_ident_char(code[after..].chars().next().unwrap_or(' '));
        before_ok && after_ok
    })
}

/// Whether some occurrence of `pat` in `code` starts at a word boundary.
fn word_bounded(code: &str, pat: &str) -> bool {
    code.match_indices(pat)
        .any(|(pos, _)| pos == 0 || !is_ident_char(code.as_bytes()[pos - 1] as char))
}

fn ends_at_word_boundary(code: &str, ident: &str) -> bool {
    let start = code.len() - ident.len();
    start == 0 || !is_ident_char(code.as_bytes()[start - 1] as char)
}
