//! Workspace walking and file classification.
//!
//! The walker enumerates the root facade package plus every `crates/*`
//! member and explicitly skips `vendor/` (the offline stand-ins for
//! crates.io dependencies would otherwise be dragged into every rule by
//! the `members = ["crates/*", "vendor/*"]` glob), `target/`, and the
//! linter's own `fixtures/` (which contain violations on purpose).
//! The `perfbench/` harness is not a workspace member: its sources are
//! read for the identifiers they name, never linted.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allowlist::AllowEntry;
use crate::flow::analyze_graph;
use crate::graph::ParsedFile;
use crate::items::parse_items;
use crate::local::check_file;
use crate::tok::{tokenize, Tok, TokKind};
use crate::{DetScope, FileContext, Finding, Rule, TargetKind};

/// Crates simulating hardware/OS state: any nondeterminism here breaks
/// bit-identical replay. The facade (root `src/`) drives the same spine
/// and is held to the same standard.
const STRICT_DET_CRATES: &[&str] = &[
    "core",
    "cache",
    "cpu",
    "dram",
    "os",
    "workloads",
    "simkit",
    "", // the root facade package
];

/// Crates whose progress/measurement code may read the wall clock, one
/// allowlist entry per use.
const ALLOWLISTED_DET_CRATES: &[&str] = &["sweep", "bench"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "results"];

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by the allowlist (local and
    /// fn-scoped graph sanctions).
    pub allowlisted: usize,
    /// Allowlist entries (`rule path token`) that sanctioned nothing.
    pub stale_entries: Vec<String>,
    /// Call-graph size: functions.
    pub graph_nodes: usize,
    /// Call-graph size: resolved call edges.
    pub graph_edges: usize,
    /// `// lint: hot-path` roots feeding the transitive passes.
    pub hot_roots: usize,
    /// Crate names contributing at least one graph node.
    pub crates_covered: Vec<String>,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Classifies a workspace-relative path (`/`-separated) into its scan
/// context, or `None` if the file is out of scope (vendored, fixtures,
/// generated).
pub fn classify(rel_path: &str) -> Option<FileContext> {
    let segments: Vec<&str> = rel_path.split('/').collect();
    let dir_segments = &segments[..segments.len().saturating_sub(1)];
    if dir_segments.iter().any(|s| SKIP_DIRS.contains(s)) {
        return None;
    }

    // Crate name: "" for the root package, the directory name for
    // crates/* members.
    let (crate_name, in_crate): (&str, &[&str]) = if segments.first() == Some(&"crates") {
        if segments.len() < 3 {
            return None;
        }
        (segments[1], &segments[2..])
    } else {
        ("", &segments[..])
    };

    let target = match in_crate.first().copied() {
        Some("tests") => TargetKind::Test,
        Some("benches") => TargetKind::Bench,
        Some("examples") => TargetKind::Example,
        Some("build.rs") => TargetKind::Bin,
        Some("src") => {
            if in_crate.get(1) == Some(&"bin") || in_crate.get(1) == Some(&"main.rs") {
                TargetKind::Bin
            } else {
                TargetKind::Lib
            }
        }
        _ => return None,
    };

    let determinism = if crate_name == "lint" {
        DetScope::Off
    } else if STRICT_DET_CRATES.contains(&crate_name) {
        DetScope::Strict
    } else if ALLOWLISTED_DET_CRATES.contains(&crate_name) {
        DetScope::Allowlisted
    } else {
        DetScope::Strict // unknown future crates default to strict
    };

    Some(FileContext {
        rel_path: rel_path.to_string(),
        target,
        determinism,
    })
}

/// Scans the whole workspace: the local rules over every `.rs` file of
/// the root package and the `crates/*` members, then the graph rules
/// over the library and binary files. Determinism findings that match
/// an allowlist entry are counted but suppressed; an entry that matches
/// nothing is reported as stale.
pub fn scan_workspace(root: &Path, allowlist: &[AllowEntry]) -> io::Result<Report> {
    let mut report = Report::default();
    for a in allowlist {
        a.used.set(false);
    }

    let mut crate_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        crate_dirs.extend(members);
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in &crate_dirs {
        // Walk only the cargo target directories of each package; walking
        // the root itself would re-enter `crates/`.
        for sub in ["src", "tests", "examples", "benches"] {
            let p = dir.join(sub);
            if p.is_dir() {
                collect_rs(&p, &mut files)?;
            }
        }
        let build = dir.join("build.rs");
        if build.is_file() {
            files.push(build);
        }
    }
    files.sort();

    // Library and binary files additionally feed the call graph; tests
    // and benches stay out so name-fallback resolution can never route a
    // production call through a test helper.
    let mut parsed: Vec<ParsedFile> = Vec::new();
    // Names called by the code outside the graph: examples, benches and
    // the perfbench harness (`dead-pub` keeps the fns they name).
    let mut external: BTreeSet<String> = BTreeSet::new();
    let perfbench = root.join("perfbench/src");
    if perfbench.is_dir() {
        let mut harness = Vec::new();
        collect_rs(&perfbench, &mut harness)?;
        for path in harness {
            add_called_names(&tokenize(&fs::read_to_string(path)?), &mut external);
        }
    }

    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = classify(&rel) else {
            continue;
        };
        let text = fs::read_to_string(path)?;
        report.files_scanned += 1;

        // Tokenize and parse once: the local rules and the graph share
        // the result.
        let toks = tokenize(&text);
        let items = parse_items(&toks);
        let mut file_findings = Vec::new();
        check_file(&ctx, &toks, &items, &mut file_findings);
        if matches!(ctx.target, TargetKind::Example | TargetKind::Bench) {
            add_called_names(&toks, &mut external);
        }

        if matches!(ctx.target, TargetKind::Lib | TargetKind::Bin) {
            let crate_name = rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("")
                .to_string();
            parsed.push(ParsedFile {
                rel_path: rel.clone(),
                crate_name,
                det: ctx.determinism,
                target: ctx.target,
                toks,
                items,
            });
        }

        for f in file_findings {
            // Allowlist entries name an exact (rule, file, token), so they
            // apply in every determinism scope: strict crates sanction
            // individual uses (the sweep engine's `thread::scope`)
            // without loosening the whole crate.
            if f.rule == Rule::Determinism
                && allowlist
                    .iter()
                    .any(|a| a.covers(f.rule, &f.file, &f.file, &f.token))
            {
                report.allowlisted += 1;
            } else {
                report.findings.push(f);
            }
        }
    }

    // Graph passes: transitive purity, taint, recursion, lossy casts,
    // dead public surface.
    let outcome = analyze_graph(&parsed, &external, allowlist);
    report.graph_nodes = outcome.nodes;
    report.graph_edges = outcome.edges;
    report.hot_roots = outcome.hot_roots;
    report.crates_covered = outcome.crates_covered;
    report.allowlisted += outcome.allowlisted;
    report.findings.extend(outcome.findings);
    report.stale_entries = allowlist
        .iter()
        .filter(|a| !a.used.get())
        .map(|a| format!("{} {} {}", a.rule, a.path, a.token))
        .collect();

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Adds the identifiers `toks` names in call or path position: `name(`,
/// `name::<` or `::name`. A field read `x.name` is not a call, so it
/// keeps no fn of that name alive; nor does a bare `name(` when the file
/// defines its own `fn name`, which that call resolves to.
fn add_called_names(toks: &[Tok], out: &mut BTreeSet<String>) {
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let punct = |i: usize, c: char| code.get(i).is_some_and(|t| t.is_punct(c));
    let local: BTreeSet<&str> = code
        .windows(2)
        .filter(|w| w[0].is_ident("fn"))
        .map(|w| w[1].text.as_str())
        .collect();
    for (i, t) in code.iter().enumerate() {
        let path = i >= 2 && punct(i - 2, ':') && punct(i - 1, ':');
        let bare = !(path || (i >= 1 && punct(i - 1, '.')));
        let called = (punct(i + 1, '(') && !(bare && local.contains(t.text.as_str())))
            || (punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<'))
            || path;
        if t.kind == TokKind::Ident && called {
            out.insert(t.text.clone());
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
