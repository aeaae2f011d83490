//! Integration tests for the call-graph rule families, run end-to-end
//! through [`scan_workspace`] over the `fixtures/graph_workspace` mini
//! workspace: a facade hot root whose violations live two crates away.
//!
//! Also holds the cross-version guards: the oracle pinning the local
//! rules to exactly the frozen v1 findings, and the whole-workspace
//! runtime budget.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use chameleon_lint::{classify, scan_file, scan_workspace, AllowEntry, Finding, Rule};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/graph_workspace")
}

/// Sanctions the fixture sweep crate's wall clock for the local rule
/// (mirroring the real workspace's per-use entries) so the graph rules
/// are the only findings left.
fn local_allowlist() -> Vec<AllowEntry> {
    vec![AllowEntry::new(
        "determinism",
        "crates/sweep/src/lib.rs",
        "*",
    )]
}

fn by_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn graph_covers_every_fixture_crate() {
    let report = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    assert!(report.graph_nodes >= 8, "graph lost fns: {report:?}");
    assert!(report.graph_edges >= 5, "graph lost edges: {report:?}");
    assert_eq!(report.hot_roots, 1);
    for c in ["", "core", "sweep"] {
        assert!(
            report.crates_covered.iter().any(|n| n == c),
            "crate {c:?} missing from graph: {:?}",
            report.crates_covered
        );
    }
}

#[test]
fn transitive_alloc_two_crates_from_the_hot_root_is_found() {
    let report = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    let hits = by_rule(&report.findings, Rule::HotPathTransitive);
    assert_eq!(hits.len(), 1, "{:#?}", report.findings);
    let f = hits[0];
    assert_eq!(f.file, "crates/core/src/lib.rs");
    assert_eq!(f.token, "vec![");
    // The blame chain walks facade -> facade -> core -> core.
    assert_eq!(
        f.blame,
        vec![
            "chameleon::System::access",
            "chameleon::Engine::step",
            "chameleon_core::helper",
            "chameleon_core::deeper",
        ]
    );
    // `justified` is on the same hot chain but its vec! carries an
    // INVARIANT comment — it must not appear.
    assert!(hits.iter().all(|f| !f.message.contains("justified")));
}

#[test]
fn recursion_reachable_from_the_hot_root_is_found() {
    let report = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    let hits = by_rule(&report.findings, Rule::HotPathRecursion);
    assert_eq!(hits.len(), 1, "{:#?}", report.findings);
    assert_eq!(hits[0].token, "recursion");
    assert!(hits[0].message.contains("walk"), "{:?}", hits[0]);
}

#[test]
fn lossy_address_cast_is_found() {
    let report = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    let hits = by_rule(&report.findings, Rule::LossyCast);
    assert_eq!(hits.len(), 1, "{:#?}", report.findings);
    assert_eq!(hits[0].file, "crates/core/src/lib.rs");
}

#[test]
fn wall_clock_taint_crosses_into_the_strict_crate() {
    let report = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    let hits = by_rule(&report.findings, Rule::DeterminismTaint);
    assert_eq!(hits.len(), 1, "{:#?}", report.findings);
    let f = hits[0];
    // The finding lands on the strict-crate caller, not the sweep leaf:
    // exactly what a per-file scan could never tie together.
    assert_eq!(f.file, "crates/core/src/lib.rs");
    assert_eq!(f.token, "std::time");
    assert!(f.message.contains("timestamp"), "{f:?}");
}

#[test]
fn fn_scoped_edge_sanction_silences_the_taint_finding() {
    let mut allow = local_allowlist();
    allow.push(AllowEntry::new(
        "determinism-taint",
        "crates/core/src/lib.rs#timestamp",
        "std::time",
    ));
    let base = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    let report = scan_workspace(&fixture_root(), &allow).expect("scan succeeds");
    assert!(by_rule(&report.findings, Rule::DeterminismTaint).is_empty());
    assert!(report.allowlisted > base.allowlisted);
}

#[test]
fn dead_pub_reports_exactly_the_pub_fns_only_tests_call() {
    let report = scan_workspace(&fixture_root(), &local_allowlist()).expect("scan succeeds");
    let dead: BTreeSet<&str> = by_rule(&report.findings, Rule::DeadPub)
        .iter()
        .map(|f| f.token.as_str())
        .collect();
    // Quiet: a `pub(crate)` fn, a trait-impl method, a fn only passed as
    // `.map(Ledger::new)`, one only called as `Ledger::total(…)`, one
    // only called in `examples/` and one only called there as a method,
    // `shape.sockets()`. `Shape::cores` stays dead: the example reads
    // only the field `shape.cores`. `unused` stays dead too: the
    // example's bare `unused()` calls its own `fn unused`.
    assert_eq!(
        dead,
        BTreeSet::from(["unused", "test_only", "cores"]),
        "{:#?}",
        report.findings
    );

    let mut allow = local_allowlist();
    allow.push(AllowEntry::new(
        "dead-pub",
        "crates/core/src/lib.rs",
        "unused",
    ));
    let sanctioned = scan_workspace(&fixture_root(), &allow).expect("scan succeeds");
    let left: Vec<&str> = by_rule(&sanctioned.findings, Rule::DeadPub)
        .iter()
        .map(|f| f.token.as_str())
        .collect();
    assert_eq!(left, ["test_only", "cores"]);
    assert_eq!(sanctioned.allowlisted, report.allowlisted + 1);
}

/// Oracle: over the per-rule and edge-case fixture directories, the
/// local rules report exactly the frozen v1 findings
/// (`fixtures/v1_expected.txt`), compared as (fixture, rule, token)
/// sets — nothing lost, nothing new.
#[test]
fn local_rules_reproduce_frozen_v1_findings_exactly() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let frozen = std::fs::read_to_string(fixtures.join("v1_expected.txt")).expect("frozen list");
    let expected: BTreeSet<String> = frozen
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();

    let ctx = classify("crates/core/src/fixture.rs").expect("lib context");
    let mut actual = BTreeSet::new();
    for dir in [
        "determinism",
        "edge_cases",
        "hot_path_alloc",
        "panic_policy",
    ] {
        for entry in std::fs::read_dir(fixtures.join(dir)).expect("fixture dir") {
            let path = entry.expect("dir entry").path();
            let text = std::fs::read_to_string(&path).expect("fixture exists");
            let mut findings = Vec::new();
            scan_file(&ctx, &text, &mut findings);
            let name = path.file_name().expect("file name").to_string_lossy();
            for f in findings {
                actual.insert(format!("{dir}/{name}|{}|{}", f.rule.name(), f.token));
            }
        }
    }
    assert_eq!(
        actual, expected,
        "local rules diverged from the frozen v1 findings"
    );
}

/// The whole-workspace scan (graph passes included) must stay inside
/// 2 s, even in a debug build.
#[test]
fn full_workspace_scan_stays_inside_the_budget() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root");
    let start = Instant::now();
    let report = scan_workspace(root, &[]).expect("scan succeeds");
    let elapsed = start.elapsed();
    assert!(report.files_scanned > 100);
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "workspace scan took {elapsed:?}, budget is 2s"
    );
}
