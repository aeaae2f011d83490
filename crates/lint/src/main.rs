#![forbid(unsafe_code)]
//! `chameleon-lint` CLI.
//!
//! ```text
//! chameleon-lint [--root PATH] [--json] [--sarif PATH] [--baseline PATH]
//!                [--allowlist PATH] [--write-baseline] [--check-all]
//! ```
//!
//! Exit codes: `0` clean (all findings baselined), `1` new findings or
//! stale baseline entries, `2` usage or I/O error. `--check-all` also
//! runs `cargo fmt --check` and `cargo clippy` first and folds their
//! exit status in.

use std::path::PathBuf;
use std::process::ExitCode;

use chameleon_lint::{
    apply_baseline, load_allowlist, load_baseline, scan_workspace, to_sarif, workspace_root_from,
    write_baseline, Finding,
};

struct Args {
    root: Option<PathBuf>,
    json: bool,
    sarif: Option<PathBuf>,
    baseline: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    write: bool,
    check_all: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        sarif: None,
        baseline: None,
        allowlist: None,
        write: false,
        check_all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--write-baseline" => args.write = true,
            "--check-all" => args.check_all = true,
            "--root" => args.root = Some(PathBuf::from(next_value(&mut it, "--root")?)),
            "--sarif" => args.sarif = Some(PathBuf::from(next_value(&mut it, "--sarif")?)),
            "--baseline" => args.baseline = Some(PathBuf::from(next_value(&mut it, "--baseline")?)),
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(next_value(&mut it, "--allowlist")?))
            }
            "--help" | "-h" => {
                println!(
                    "chameleon-lint: workspace invariant linter\n\n\
                     USAGE: chameleon-lint [--root PATH] [--json] [--sarif PATH]\n\
                    \x20                     [--baseline PATH] [--allowlist PATH]\n\
                    \x20                     [--write-baseline] [--check-all]\n\n\
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

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("crates/lint/baseline.txt"));
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

        if args.write {
            write_baseline(&baseline_path, &report.findings)?;
            eprintln!(
                "chameleon-lint: wrote {} baseline entries to {}",
                report.findings.len(),
                baseline_path.display()
            );
            return Ok(ExitCode::SUCCESS);
        }

        let baseline = load_baseline(&baseline_path)?;
        let (new, baselined, stale) = apply_baseline(&report.findings, &baseline);

        if let Some(sarif_path) = &args.sarif {
            let new_keys: Vec<&str> = new.iter().map(|f| f.key.as_str()).collect();
            std::fs::write(sarif_path, to_sarif(&report.findings, &new_keys))?;
            eprintln!(
                "chameleon-lint: wrote SARIF report to {}",
                sarif_path.display()
            );
        }

        if args.json {
            print_json(&report.findings, &new, &stale, report.files_scanned);
        } else {
            print_human(&new, &baselined, &stale, report.files_scanned);
        }

        Ok(
            if new.is_empty() && stale.is_empty() && !cargo_checks_failed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            },
        )
    };

    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chameleon-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_human(new: &[&Finding], baselined: &[&Finding], stale: &[String], files: usize) {
    for f in new {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
    }
    for f in baselined {
        println!(
            "{}:{}: [{}] {} (baselined)",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        );
    }
    for k in stale {
        println!("stale baseline entry (remove it or run --write-baseline): {k}");
    }
    println!(
        "chameleon-lint: {} files scanned, {} new finding(s), {} baselined, {} stale baseline entr(ies)",
        files,
        new.len(),
        baselined.len(),
        stale.len()
    );
}

fn print_json(all: &[Finding], new: &[&Finding], stale: &[String], files: usize) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files},\n"));
    out.push_str(&format!("  \"new_count\": {},\n", new.len()));
    out.push_str(&format!(
        "  \"baselined_count\": {},\n",
        all.len() - new.len()
    ));
    out.push_str("  \"findings\": [\n");
    for (i, f) in all.iter().enumerate() {
        let is_new = new.iter().any(|n| std::ptr::eq(*n, f));
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"token\": {}, \"message\": {}, \"key\": {}, \"new\": {}}}{}\n",
            json_str(f.rule.name()),
            json_str(&f.file),
            f.line,
            json_str(&f.token),
            json_str(&f.message),
            json_str(&f.key),
            is_new,
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"stale_baseline\": [");
    for (i, k) in stale.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(k));
    }
    out.push_str("]\n}");
    println!("{out}");
}

/// Minimal JSON string escaping (the linter is dependency-free by
/// design, so no serde here).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
