//! `sweeprunner` argument errors: a ratio the params cannot split is
//! reported like any other bad argument, before a cell runs.

use std::process::Command;

#[test]
fn unsplittable_ratios_are_argument_errors() {
    let results = std::env::temp_dir().join(format!("sweeprunner-cli-{}", std::process::id()));
    for ratio in ["4", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweeprunner"))
            .args(["--apps", "mcf", "--archs", "pom", "--no-store", "--ratios"])
            .arg(ratio)
            .env("CHAMELEON_RESULTS", &results)
            .env("CHAMELEON_SCALE", "quick")
            .output()
            .expect("sweeprunner runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "ratio {ratio}: {stderr}");
        assert!(
            stderr.contains(&format!("sweeprunner: bad ratio {ratio}:")),
            "ratio {ratio}: {stderr}"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).is_empty(),
            "no cell may run"
        );
    }
    let _ = std::fs::remove_dir_all(&results);
}
