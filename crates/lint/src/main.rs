#![forbid(unsafe_code)]
//! `chameleon-lint` CLI.
//!
//! ```text
//! chameleon-lint [--root PATH]
//! ```
//!
//! Exit codes: `0` no findings, `1` any finding or stale allowlist
//! entry, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use chameleon_lint::{load_allowlist, scan_workspace, workspace_root_from, Report};

/// The `--root` value, if given.
fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let value = it.next().ok_or("--root needs a value")?;
                root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!(
                    "chameleon-lint: workspace invariant linter\n\n\
                     USAGE: chameleon-lint [--root PATH]\n\n\
                     Local rules:  hot-path-alloc, determinism, panic-policy\n\
                     Graph rules:  hot-path-transitive, determinism-taint,\n\
                    \x20              hot-path-recursion, lossy-cast, dead-pub\n\n\
                     --root PATH    workspace to scan (default: the one above\n\
                    \x20              the current directory)\n\
                     (see DESIGN.md sections 13 and 18)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chameleon-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match root.or_else(|| {
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

    let run = || -> std::io::Result<Report> {
        let allowlist = load_allowlist(&root.join("crates/lint/allowlist.txt"))?;
        scan_workspace(&root, &allowlist)
    };

    match run() {
        Ok(report) => {
            print_human(&report);
            if report.findings.is_empty() && report.stale_entries.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("chameleon-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_human(report: &Report) {
    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
    }
    for e in &report.stale_entries {
        println!("crates/lint/allowlist.txt: stale entry `{e}` sanctions no finding");
    }
    println!(
        "chameleon-lint: {} files scanned, {} finding(s), {} stale allowlist entry(ies)",
        report.files_scanned,
        report.findings.len(),
        report.stale_entries.len()
    );
}
