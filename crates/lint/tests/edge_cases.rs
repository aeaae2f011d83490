//! Edge cases the token rules must get right: raw strings, nested
//! block comments, `#[cfg(test)]` modules inside a library file (and
//! `#[cfg(not(test))]` items, which are production code), and
//! multi-line function signatures.

use chameleon_lint::{classify, scan_file, Finding, Rule};

fn scan_fixture(rel: &str) -> Vec<Finding> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/edge_cases")
        .join(rel);
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    let ctx = classify("crates/core/src/edge.rs").expect("lib context");
    let mut out = Vec::new();
    scan_file(&ctx, &text, &mut out);
    out
}

#[test]
fn raw_strings_hide_panic_tokens() {
    assert!(scan_fixture("raw_string.rs").is_empty());
}

#[test]
fn nested_block_comments_hide_tokens() {
    assert!(scan_fixture("nested_comments.rs").is_empty());
}

#[test]
fn cfg_test_modules_in_library_files_are_exempt() {
    assert!(scan_fixture("cfg_test_module.rs").is_empty());
}

#[test]
fn multi_line_signature_still_attaches_hot_path() {
    let findings = scan_fixture("multiline_fn.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::HotPathAlloc);
    assert_eq!(findings[0].token, "vec![");
    // The un-annotated `cold` function's `.collect()` must not fire.
    assert!(findings.iter().all(|f| f.token != ".collect()"));
}

#[test]
fn cfg_not_test_items_are_production_code() {
    let findings = scan_fixture("cfg_not_test.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::PanicPolicy);
    assert_eq!(findings[0].token, ".unwrap()");
}
