//! The allowlist (`crates/lint/allowlist.txt`), the one way to sanction
//! a finding: wall-clock in `sweep`/`bench` progress and measurement
//! code, scoped thread pools in the deterministic-merge modules (the
//! sweep engine, the scenario grid), and the few `dead-pub` fns kept for
//! a stated reason. One line per `rule<TAB-or-space>path<TAB-or-space>token`
//! (token `*` matches any). Entries apply in every determinism scope, so
//! a strict crate can sanction a single use without loosening the whole
//! crate. An entry that sanctions nothing in a scan is stale, and the
//! scan reports it.

use std::cell::Cell;
use std::fs;
use std::io;
use std::path::Path;

use crate::Rule;

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
    /// Whether the entry has sanctioned anything in the current scan.
    pub(crate) used: Cell<bool>,
}

impl AllowEntry {
    /// An entry sanctioning `token` under `rule` at `path`.
    pub fn new(rule: &str, path: &str, token: &str) -> Self {
        Self {
            rule: rule.to_string(),
            path: path.to_string(),
            token: token.to_string(),
            used: Cell::new(false),
        }
    }

    /// Whether this entry sanctions `token` under `rule` in `file` or in
    /// the fn `scope` (`file#Fn`); a hit marks the entry used.
    pub fn covers(&self, rule: Rule, file: &str, scope: &str, token: &str) -> bool {
        let hit = self.rule == rule.name()
            && (self.path == file || self.path == scope)
            && (self.token == "*" || self.token == token);
        if hit {
            self.used.set(true);
        }
        hit
    }
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
            (Some(rule), Some(path), Some(token)) => {
                entries.push(AllowEntry::new(rule, path, token))
            }
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
