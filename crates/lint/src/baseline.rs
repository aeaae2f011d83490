//! The baseline ratchet and the determinism allowlist.
//!
//! * **Baseline** (`crates/lint/baseline.txt`): finding keys that
//!   predate the linter. A finding whose key is listed is reported but
//!   does not fail the run; a key that no longer matches anything is
//!   *stale* and fails the run until removed — the baseline can only
//!   shrink, never grow (run `--write-baseline` after burning findings
//!   down).
//! * **Allowlist** (`crates/lint/allowlist.txt`): sanctioned
//!   determinism-rule uses — wall-clock in `sweep`/`bench` progress and
//!   measurement code, scoped thread pools in the deterministic-merge
//!   modules (the sweep engine, the scenario grid) — one
//!   line per `rule<TAB-or-space>path<TAB-or-space>token` (token `*`
//!   matches any). Entries apply in every determinism scope, so a strict
//!   crate can sanction a single use without loosening the whole crate.

use std::fs;
use std::io;
use std::path::Path;

use crate::Finding;

/// One allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name (kebab-case, e.g. `determinism`, `determinism-taint`).
    pub rule: String,
    /// Workspace-relative file path, optionally fn-scoped
    /// (`crates/sweep/src/engine.rs#SweepEngine::run`). Graph rules match
    /// either form; the local rules match the bare file path.
    pub path: String,
    /// Token the entry sanctions, or `*` for any token in the scope.
    pub token: String,
}

impl AllowEntry {
    /// Whether this entry sanctions the finding.
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule.name()
            && self.path == f.file
            && (self.token == "*" || self.token == f.token)
    }
}

/// Loads baseline keys; a missing file is an empty baseline.
///
/// Keys are rule-versioned (`rule@vN|file|token|context`). Legacy
/// unversioned keys (`rule|…`) are rejected outright: a stale key would
/// otherwise silently stop matching after a rule-semantics bump and
/// mask the very findings the bump was meant to surface.
pub fn load_baseline(path: &Path) -> io::Result<Vec<String>> {
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let mut keys = Vec::new();
    for (lineno, line) in fs::read_to_string(path)?.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule_field = line.split('|').next().unwrap_or("");
        if !rule_field.contains("@v") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "baseline line {}: unversioned key `{rule_field}|…` — regenerate \
                     with `chameleon-lint --write-baseline` (keys are now `rule@vN|…`)",
                    lineno + 1
                ),
            ));
        }
        keys.push(line.to_string());
    }
    Ok(keys)
}

/// Writes the given finding keys as the new baseline, sorted and
/// deduplicated.
pub fn write_baseline(path: &Path, findings: &[Finding]) -> io::Result<()> {
    let mut keys: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut text = String::from(
        "# chameleon-lint baseline: pre-existing findings, ratcheted.\n\
         # New findings fail the build; entries here may only be removed\n\
         # (fix the finding, then run `chameleon-lint --write-baseline`).\n",
    );
    for k in keys {
        text.push_str(k);
        text.push('\n');
    }
    fs::write(path, text)
}

/// Loads the allowlist; a missing file is an empty allowlist.
pub fn load_allowlist(path: &Path) -> io::Result<Vec<AllowEntry>> {
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let mut entries = Vec::new();
    for (lineno, line) in fs::read_to_string(path)?.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(token)) => entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                token: token.to_string(),
            }),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("allowlist line {}: expected `rule path token`", lineno + 1),
                ))
            }
        }
    }
    Ok(entries)
}

/// Splits findings against a baseline: (new, baselined, stale keys).
pub fn apply_baseline<'a>(
    findings: &'a [Finding],
    baseline: &[String],
) -> (Vec<&'a Finding>, Vec<&'a Finding>, Vec<String>) {
    let mut new = Vec::new();
    let mut old = Vec::new();
    for f in findings {
        if baseline.contains(&f.key) {
            old.push(f);
        } else {
            new.push(f);
        }
    }
    let stale: Vec<String> = baseline
        .iter()
        .filter(|k| !findings.iter().any(|f| &f.key == *k))
        .cloned()
        .collect();
    (new, old, stale)
}
