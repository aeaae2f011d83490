//! End-to-end CLI test against a throwaway mini-workspace: seeded
//! violations exit non-zero, `--write-baseline` ratchets them, fixing
//! the code turns the entry stale (which also fails), and a clean tree
//! exits zero.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

// Private fns: a `pub` one that nothing calls is itself a `dead-pub`
// finding.
const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\nfn ok() -> u32 { 1 }\n";
const DIRTY_LIB: &str = "#![forbid(unsafe_code)]\nfn bad(x: Option<u32>) -> u32 { x.unwrap() }\n";

struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("chameleon-lint-{tag}-{}", std::process::id()));
        // INVARIANT: test scratch dir under temp_dir; failure fails the test.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/core/src")).expect("create mini workspace");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .expect("write root manifest");
        fs::write(
            root.join("crates/core/Cargo.toml"),
            "[package]\nname = \"mini-core\"\n",
        )
        .expect("write member manifest");
        Self { root }
    }

    fn write_lib(&self, text: &str) {
        fs::write(self.root.join("crates/core/src/lib.rs"), text).expect("write lib.rs");
    }

    fn run(&self, extra: &[&str]) -> (i32, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_chameleon-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("linter binary runs");
        let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
        text.push_str(&String::from_utf8_lossy(&out.stderr));
        (out.status.code().expect("exit code"), text)
    }

    fn baseline(&self) -> PathBuf {
        self.root.join("crates/lint/baseline.txt")
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_violation_fails_then_baseline_ratchets() {
    let ws = MiniWorkspace::new("ratchet");
    ws.write_lib(DIRTY_LIB);

    // Seeded violation: non-zero exit, JSON names the rule.
    let (code, out) = ws.run(&["--json"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("\"panic-policy\""), "{out}");
    assert!(out.contains("\"new\": true"), "{out}");

    // Ratchet it into a baseline; the same tree is now clean.
    fs::create_dir_all(ws.root.join("crates/lint")).expect("baseline dir");
    let (code, out) = ws.run(&["--write-baseline"]);
    assert_eq!(code, 0, "{out}");
    assert!(ws.baseline().is_file());
    let (code, out) = ws.run(&[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("1 baselined"), "{out}");

    // Fixing the code strands the baseline entry: stale entries fail
    // until removed, so the baseline can only shrink.
    ws.write_lib(CLEAN_LIB);
    let (code, out) = ws.run(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("stale baseline"), "{out}");
    fs::remove_file(ws.baseline()).expect("drop baseline");
    let (code, out) = ws.run(&[]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn missing_unsafe_forbid_is_reported() {
    let ws = MiniWorkspace::new("forbid");
    ws.write_lib("pub fn ok() -> u32 { 1 }\n");
    let (code, out) = ws.run(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("unsafe-forbid"), "{out}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let ws = MiniWorkspace::new("usage");
    ws.write_lib(CLEAN_LIB);
    let (code, out) = ws.run(&["--frobnicate"]);
    assert_eq!(code, 2, "{out}");
}
