#![forbid(unsafe_code)]
//! `chameleon-lint` CLI.
//!
//! ```text
//! chameleon-lint [--root PATH] [--json] [--sarif PATH] [--allowlist PATH]
//!                [--check-all]
//! ```
//!
//! Exit codes: `0` no findings, `1` any finding, `2` usage or I/O error.
//! `--check-all` also runs `cargo fmt --check` and `cargo clippy` first;
//! a failed step exits `1` too.

use std::path::PathBuf;
use std::process::ExitCode;

use chameleon_lint::{
    json_str, load_allowlist, scan_workspace, to_sarif, workspace_root_from, Finding,
};

struct Args {
    root: Option<PathBuf>,
    json: bool,
    sarif: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    check_all: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        sarif: None,
        allowlist: None,
        check_all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--check-all" => args.check_all = true,
            "--root" => args.root = Some(PathBuf::from(next_value(&mut it, "--root")?)),
            "--sarif" => args.sarif = Some(PathBuf::from(next_value(&mut it, "--sarif")?)),
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(next_value(&mut it, "--allowlist")?))
            }
            "--help" | "-h" => {
                println!(
                    "chameleon-lint: workspace invariant linter\n\n\
                     USAGE: chameleon-lint [--root PATH] [--json] [--sarif PATH]\n\
                    \x20                     [--allowlist PATH] [--check-all]\n\n\
                     Local rules:  hot-path-alloc, determinism, panic-policy,\n\
                    \x20              unsafe-forbid\n\
                     Graph rules:  hot-path-transitive, determinism-taint,\n\
                    \x20              hot-path-recursion, lossy-cast, dead-metric,\n\
                    \x20              dead-pub\n\n\
                     --sarif PATH   also write a SARIF 2.1.0 report\n\
                     --check-all    run cargo fmt --check and cargo clippy first\n\
                     (see DESIGN.md sections 13 and 18)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chameleon-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| workspace_root_from(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("chameleon-lint: no workspace root found (use --root)");
            return ExitCode::from(2);
        }
    };

    let allowlist_path = args
        .allowlist
        .clone()
        .unwrap_or_else(|| root.join("crates/lint/allowlist.txt"));

    // --check-all front-runs the cargo-native checks so `cargo lint
    // --check-all` is the one entry point CI and humans share.
    let mut cargo_checks_failed = false;
    if args.check_all {
        for (label, cargo_args) in [
            ("cargo fmt --check", &["fmt", "--check"][..]),
            (
                "cargo clippy",
                &["clippy", "--workspace", "--", "-D", "warnings"][..],
            ),
        ] {
            eprintln!("chameleon-lint: running {label}");
            match std::process::Command::new("cargo")
                .args(cargo_args)
                .current_dir(&root)
                .status()
            {
                Ok(s) if s.success() => {}
                Ok(_) => {
                    eprintln!("chameleon-lint: {label} failed");
                    cargo_checks_failed = true;
                }
                Err(e) => {
                    eprintln!("chameleon-lint: could not run {label}: {e}");
                    cargo_checks_failed = true;
                }
            }
        }
    }

    let run = || -> std::io::Result<ExitCode> {
        let allowlist = load_allowlist(&allowlist_path)?;
        let report = scan_workspace(&root, &allowlist)?;

        if let Some(sarif_path) = &args.sarif {
            std::fs::write(sarif_path, to_sarif(&report.findings))?;
            eprintln!(
                "chameleon-lint: wrote SARIF report to {}",
                sarif_path.display()
            );
        }

        if args.json {
            print_json(&report.findings, report.files_scanned);
        } else {
            print_human(&report.findings, report.files_scanned);
        }

        Ok(if report.findings.is_empty() && !cargo_checks_failed {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    };

    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chameleon-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_human(findings: &[Finding], files: usize) {
    for f in findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
    }
    println!(
        "chameleon-lint: {} files scanned, {} finding(s)",
        files,
        findings.len()
    );
}

fn print_json(findings: &[Finding], files: usize) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {files},\n"));
    out.push_str(&format!("  \"finding_count\": {},\n", findings.len()));
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"token\": {}, \"message\": {}}}{}\n",
            json_str(f.rule.name()),
            json_str(&f.file),
            f.line,
            json_str(&f.token),
            json_str(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    println!("{out}");
}
