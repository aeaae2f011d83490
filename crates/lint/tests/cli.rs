//! End-to-end CLI test against a throwaway mini-workspace: seeded
//! violations exit non-zero, a clean tree exits zero, and a bad flag is
//! a usage error.

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
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_violation_fails_and_the_fixed_tree_passes() {
    let ws = MiniWorkspace::new("seeded");
    ws.write_lib(DIRTY_LIB);

    // Seeded violation: exit 1, and the finding line names the rule.
    let (code, out) = ws.run(&[]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("crates/core/src/lib.rs:2: [panic-policy]"),
        "{out}"
    );

    // Fixing the code leaves no finding: exit 0.
    ws.write_lib(CLEAN_LIB);
    let (code, out) = ws.run(&[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 finding(s)"), "{out}");
}

/// Any flag but `--root` is a usage error, the retired output and
/// cargo-check flags included.
#[test]
fn unknown_flag_is_a_usage_error() {
    let ws = MiniWorkspace::new("usage");
    ws.write_lib(CLEAN_LIB);
    for args in [
        &["--frobnicate"][..],
        &["--check-all"],
        &["--sarif", "x"],
        &["--json"],
        &["--allowlist", "x"],
    ] {
        let (code, out) = ws.run(args);
        assert_eq!(code, 2, "{args:?}: {out}");
    }
}
