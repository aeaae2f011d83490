//! The real workspace must be clean: no findings beyond what the
//! checked-in allowlist sanctions, and no allowlist entry that
//! sanctions nothing. This is the scan `cargo lint` runs, kept here so
//! plain `cargo test` catches a violation without a separate step.

use chameleon_lint::{load_allowlist, scan_workspace};

#[test]
fn workspace_has_no_findings() {
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
    assert!(
        report.findings.is_empty(),
        "lint findings (fix them, or allowlist them with a reason):\n{:#?}",
        report.findings
    );
    assert!(
        report.stale_entries.is_empty(),
        "allowlist entries that sanction no finding (delete them):\n{:#?}",
        report.stale_entries
    );
}

/// `unsafe` is forbidden by rustc, not by a lint rule: the root
/// manifest sets `unsafe_code = "forbid"` in `[workspace.lints.rust]`,
/// and every member (the root package and each `crates/*` crate)
/// inherits that table through `[lints] workspace = true`.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root");
    let section = |text: &str, header: &str| -> Vec<String> {
        text.lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect()
    };
    let root_toml = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        section(&root_toml, "[workspace.lints.rust]").contains(&"unsafe_code = \"forbid\"".into()),
        "[workspace.lints.rust] no longer forbids unsafe_code"
    );

    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let path = entry.expect("dir entry").path().join("Cargo.toml");
        if path.is_file() {
            manifests.push(path);
        }
    }
    assert!(manifests.len() > 5, "lost the member crates: {manifests:?}");
    for path in manifests {
        let text = std::fs::read_to_string(&path).expect("member manifest reads");
        assert!(
            section(&text, "[lints]").contains(&"workspace = true".into()),
            "{} does not inherit the workspace lints (`[lints] workspace = true`)",
            path.display()
        );
    }
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
const LINT_SRC_LINE_BUDGET: usize = 3_750;

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
