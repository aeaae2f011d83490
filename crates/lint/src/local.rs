//! The four local rules, run over one file's token stream and item
//! parse: `hot-path-alloc`, `determinism`, `panic-policy` and
//! `unsafe-forbid`. The allocation and nondeterminism tokens come from
//! [`crate::flow::extract_facts`] and the `INVARIANT:` lines from
//! [`crate::flow::invariant_lines`], the same sources the graph rules
//! read. Test code is every token inside a [`FileItems::test_spans`]
//! span; every rule but `hot-path-alloc` skips it.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::flow::{extract_facts, invariant_lines, justified};
use crate::items::{parse_items, FileItems};
use crate::tok::{tokenize, Tok, TokKind};
use crate::{DetScope, FileContext, Finding, Rule, TargetKind};

/// Iteration adaptors that observe hash order when called on a
/// `HashMap`/`HashSet`.
const HASH_ITER: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// The crate-root attribute `unsafe-forbid` requires, as tokens.
const FORBID_UNSAFE: &[&str] = &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];

/// One raw hit: (line, rule, token, message).
type Hit = (usize, Rule, String, String);

/// Scans one file's source text under the given context, appending
/// findings. Line numbers are 1-based.
pub fn scan_file(ctx: &FileContext, text: &str, out: &mut Vec<Finding>) {
    let toks = tokenize(text);
    check_file(ctx, &toks, &parse_items(&toks), out);
}

fn forbids_unsafe(toks: &[Tok]) -> bool {
    let code: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .map(|t| t.text.as_str())
        .collect();
    code.windows(FORBID_UNSAFE.len())
        .any(|w| w == FORBID_UNSAFE)
}

/// Runs the four local rules over an already tokenized and parsed file.
pub(crate) fn check_file(
    ctx: &FileContext,
    toks: &[Tok],
    items: &FileItems,
    out: &mut Vec<Finding>,
) {
    let no_invariants = BTreeSet::new();
    let mut hits: Vec<Hit> = Vec::new();

    for f in items.fns.iter().filter(|f| f.is_hot && !f.in_test) {
        for (tok, line) in extract_facts(toks, f.body.clone(), &no_invariants).allocs {
            let msg = format!("`{tok}` inside a `// lint: hot-path` function body");
            hits.push((line, Rule::HotPathAlloc, tok, msg));
        }
    }

    let code = outside(toks.len(), &items.test_spans);
    let ct = code_toks(toks, &items.test_spans);
    if ctx.determinism != DetScope::Off && matches!(ctx.target, TargetKind::Lib | TargetKind::Bin) {
        for r in &code {
            for (tok, line) in extract_facts(toks, r.clone(), &no_invariants).nondet {
                let msg = format!("`{tok}` in simulation code (wall-clock/ambient RNG)");
                hits.push((line, Rule::Determinism, tok, msg));
            }
        }
        hash_iteration(&ct, &mut hits);
    }

    if ctx.target == TargetKind::Lib {
        let inv = invariant_lines(toks);
        for (k, &(t, in_code)) in ct.iter().enumerate() {
            let Some(tok) = panic_token(&ct, k) else {
                continue;
            };
            if in_code && !justified(&inv, t.line) {
                let msg = format!(
                    "`{tok}` in library code without an adjacent `// INVARIANT:` justification"
                );
                hits.push((t.line, Rule::PanicPolicy, tok.to_string(), msg));
            }
        }
    }

    // One finding per (line, rule, token), as a reader counts them.
    hits.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    hits.dedup_by(|a, b| (a.0, a.1, &a.2) == (b.0, b.1, &b.2));
    for (line, rule, tok, msg) in hits {
        let context = line_text(toks, line);
        out.push(Finding::new(rule, &ctx.rel_path, line, &tok, &context, msg));
    }

    if is_crate_root(&ctx.rel_path) && !forbids_unsafe(toks) {
        out.push(Finding::new(
            Rule::UnsafeForbid,
            &ctx.rel_path,
            1,
            "#![forbid(unsafe_code)]",
            "crate-root",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

/// `src/lib.rs` of the root package or of a `crates/*` member.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.ends_with("/src/lib.rs") && rel.matches('/').count() == 3)
}

/// The complement of the (sorted, disjoint) `spans` within `0..n`.
fn outside(n: usize, spans: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    for s in spans {
        if s.start > at {
            out.push(at..s.start);
        }
        at = at.max(s.end);
    }
    if at < n {
        out.push(at..n);
    }
    out
}

/// The file's non-comment tokens, each tagged with whether it lies
/// outside every test span.
fn code_toks<'a>(toks: &'a [Tok], test_spans: &[Range<usize>]) -> Vec<(&'a Tok, bool)> {
    toks.iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, t)| (t, !test_spans.iter().any(|s| s.contains(&i))))
        .collect()
}

/// The panic token (`. unwrap ( )`, `. expect (` or `panic !`) that
/// starts at `ct[k]`, if any.
fn panic_token(ct: &[(&Tok, bool)], k: usize) -> Option<&'static str> {
    let at = |i: usize| ct.get(k + i).map(|c| c.0);
    let call = |name: &str| {
        ct[k].0.is_punct('.')
            && at(1).is_some_and(|t| t.is_ident(name))
            && at(2).is_some_and(|t| t.is_punct('('))
    };
    if call("unwrap") && at(3).is_some_and(|t| t.is_punct(')')) {
        Some(".unwrap()")
    } else if call("expect") {
        Some(".expect(")
    } else if ct[k].0.is_ident("panic") && at(1).is_some_and(|t| t.is_punct('!')) {
        Some("panic!")
    } else {
        None
    }
}

/// Hash-order iteration: an identifier bound anywhere in the file to a
/// `HashMap`/`HashSet` (`name: [path::]HashMap…` or `name = HashSet…`)
/// and, in non-test code, either called with an iteration adaptor
/// (`name.iter(`) or looped over (`in [&][mut] [self.]name`).
fn hash_iteration(ct: &[(&Tok, bool)], hits: &mut Vec<Hit>) {
    let tok = |i: usize| ct[i].0;

    let mut bound: BTreeSet<&str> = BTreeSet::new();
    for k in 0..ct.len() {
        if !(tok(k).is_ident("HashMap") || tok(k).is_ident("HashSet")) {
            continue;
        }
        let mut b = k;
        while b >= 3 && tok(b - 1).is_punct(':') && tok(b - 2).is_punct(':') {
            b -= 3; // a `std::collections::`-style path segment
        }
        if b < 2 || tok(b - 2).kind != TokKind::Ident {
            continue;
        }
        let binder = tok(b - 1);
        if binder.is_punct('=') || binder.is_punct(':') {
            bound.insert(&tok(b - 2).text);
        }
    }

    for k in 0..ct.len() {
        let (t, in_code) = ct[k];
        if !in_code || t.kind != TokKind::Ident || !bound.contains(t.text.as_str()) {
            continue;
        }
        let next = |i: usize| ct.get(k + i).map(|c| c.0);
        let adaptor = next(1).is_some_and(|t| t.is_punct('.'))
            && next(2).is_some_and(|t| HASH_ITER.iter().any(|a| t.is_ident(a)))
            && next(3).is_some_and(|t| t.is_punct('('));
        let mut m = k;
        if m >= 2 && tok(m - 1).is_punct('.') && tok(m - 2).is_ident("self") {
            m -= 2;
        }
        if m >= 1 && tok(m - 1).is_ident("mut") {
            m -= 1;
        }
        if m >= 1 && tok(m - 1).is_punct('&') {
            m -= 1;
        }
        let looped = m >= 1 && tok(m - 1).is_ident("in");
        if adaptor || looped {
            let msg = format!(
                "iteration over `{}` (a HashMap/HashSet) observes hash order",
                t.text
            );
            hits.push((t.line, Rule::Determinism, t.text.clone(), msg));
        }
    }
}

/// The non-comment token text of one line, space-separated: the
/// baseline-key context of a local finding.
fn line_text(toks: &[Tok], line: usize) -> String {
    let lo = toks.partition_point(|t| t.line < line);
    toks[lo..]
        .iter()
        .take_while(|t| t.line == line)
        .filter(|t| t.kind != TokKind::Comment)
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}
