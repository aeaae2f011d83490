//! The real workspace must be clean: no findings beyond the checked-in
//! baseline, and no stale baseline entries. This is the same check CI
//! runs through the binary, kept here so plain `cargo test` catches a
//! violation without a separate step.

use chameleon_lint::{apply_baseline, load_allowlist, load_baseline, scan_workspace};

#[test]
fn workspace_has_no_new_or_stale_findings() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root");
    let allowlist = load_allowlist(&manifest.join("allowlist.txt")).expect("allowlist parses");
    let report = scan_workspace(root, &allowlist).expect("scan succeeds");
    assert!(report.files_scanned > 100, "walker lost most of the tree");

    // The call graph must cover every workspace crate (plus the root
    // facade, named "") and have found the hot roots, or the transitive
    // passes are silently scanning nothing.
    let mut member_crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    member_crates.push(String::new());
    for c in &member_crates {
        assert!(
            report.crates_covered.iter().any(|n| n == c),
            "crate {c:?} contributes no call-graph nodes: {:?}",
            report.crates_covered
        );
    }
    assert!(report.graph_nodes > 500, "graph lost fns: {report:?}");
    assert!(report.hot_roots > 0, "no hot-path roots found");
    let baseline = load_baseline(&manifest.join("baseline.txt")).expect("baseline loads");
    let (new, _baselined, stale) = apply_baseline(&report.findings, &baseline);
    assert!(
        new.is_empty(),
        "new lint findings (annotate or fix them):\n{:#?}",
        new
    );
    assert!(stale.is_empty(), "stale baseline entries: {stale:#?}");
}

/// Every `dead-pub` sanction names why the fn stays: (a) oracle, (b)
/// paper claim, or (c) test entry point.
#[test]
fn dead_pub_allowlist_entries_name_a_reason() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("allowlist.txt")).expect("allowlist reads");
    for line in text.lines().filter(|l| l.starts_with("dead-pub ")) {
        assert!(
            ["# (a)", "# (b)", "# (c)"].iter().any(|r| line.contains(r)),
            "dead-pub entry without a reason: {line}"
        );
    }
}

/// Lines the linter's own source (`crates/lint/src/*.rs`) may span. The
/// linter guards the simulator's contracts; it must not outgrow them.
const LINT_SRC_LINE_BUDGET: usize = 4_550;

#[test]
fn lint_source_stays_inside_its_line_budget() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let total: usize = std::fs::read_dir(&src)
        .expect("lint src dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            std::fs::read_to_string(&p)
                .expect("lint source reads")
                .lines()
                .count()
        })
        .sum();
    assert!(
        total <= LINT_SRC_LINE_BUDGET,
        "crates/lint/src is {total} lines, over its {LINT_SRC_LINE_BUDGET}-line budget: \
         delete code, or justify raising LINT_SRC_LINE_BUDGET in CHANGES.md"
    );
}
