//! Per-rule fixture tests: each rule family has a `fail.rs` that must
//! produce findings and a `pass.rs` that must stay clean. Fixtures are
//! scanned as if they were library files of a strict-determinism crate.

use chameleon_lint::{classify, scan_file, Finding, Rule};

fn read_fixture(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel);
    std::fs::read_to_string(&path).expect("fixture exists")
}

fn scan_fixture(rel: &str) -> Vec<Finding> {
    let ctx = classify("crates/core/src/fixture.rs").expect("lib context");
    let mut out = Vec::new();
    scan_file(&ctx, &read_fixture(rel), &mut out);
    out
}

fn tokens(findings: &[Finding], rule: Rule) -> Vec<&str> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.token.as_str())
        .collect()
}

#[test]
fn hot_path_alloc_fail_fixture_is_caught() {
    let findings = scan_fixture("hot_path_alloc/fail.rs");
    let toks = tokens(&findings, Rule::HotPathAlloc);
    assert!(toks.contains(&"vec!["), "{findings:?}");
    assert!(toks.contains(&"Box::new"), "{findings:?}");
    assert!(toks.contains(&"format!"), "{findings:?}");
    // The `samples: Vec<u64>` field sits outside the hot body.
    assert!(findings.iter().all(|f| f.rule == Rule::HotPathAlloc));
}

#[test]
fn hot_path_alloc_pass_fixture_is_clean() {
    assert!(scan_fixture("hot_path_alloc/pass.rs").is_empty());
}

#[test]
fn determinism_fail_fixture_is_caught() {
    let findings = scan_fixture("determinism/fail.rs");
    let toks = tokens(&findings, Rule::Determinism);
    assert!(toks.contains(&"std::time"), "{findings:?}");
    assert!(toks.contains(&"Instant"), "{findings:?}");
    assert!(
        toks.contains(&"pages"),
        "hash-order iteration missed: {findings:?}"
    );
    assert!(
        toks.contains(&"std::thread") && toks.contains(&"thread::scope"),
        "host-threading tokens missed: {findings:?}"
    );
}

#[test]
fn determinism_pass_fixture_is_clean() {
    assert!(scan_fixture("determinism/pass.rs").is_empty());
}

#[test]
fn determinism_is_off_for_tests_and_the_lint_crate() {
    for as_path in ["crates/core/tests/t.rs", "crates/lint/src/fixture.rs"] {
        let ctx = classify(as_path).expect("context");
        let mut out = Vec::new();
        scan_file(&ctx, &read_fixture("determinism/fail.rs"), &mut out);
        assert!(
            out.iter().all(|f| f.rule != Rule::Determinism),
            "{as_path}: {out:?}"
        );
    }
}

#[test]
fn panic_policy_fail_fixture_is_caught() {
    let findings = scan_fixture("panic_policy/fail.rs");
    let toks = tokens(&findings, Rule::PanicPolicy);
    assert_eq!(toks, vec![".unwrap()", ".expect(", "panic!"]);
}

#[test]
fn panic_policy_pass_fixture_is_clean() {
    assert!(scan_fixture("panic_policy/pass.rs").is_empty());
}

#[test]
fn panic_policy_exempts_non_library_targets() {
    for as_path in [
        "crates/core/tests/t.rs",
        "crates/core/benches/b.rs",
        "crates/core/src/bin/x.rs",
    ] {
        let ctx = classify(as_path).expect("context");
        let mut out = Vec::new();
        scan_file(&ctx, &read_fixture("panic_policy/fail.rs"), &mut out);
        assert!(
            out.iter().all(|f| f.rule != Rule::PanicPolicy),
            "{as_path}: {out:?}"
        );
    }
}

#[test]
fn unsafe_forbid_fixtures() {
    let ctx = classify("crates/core/src/lib.rs").expect("crate root context");
    let forbids = |rel: &str| {
        let mut out = Vec::new();
        scan_file(&ctx, &read_fixture(rel), &mut out);
        out.iter().all(|f| f.rule != Rule::UnsafeForbid)
    };
    assert!(!forbids("unsafe_forbid/fail.rs"));
    assert!(forbids("unsafe_forbid/pass.rs"));
}
