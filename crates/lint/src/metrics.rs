//! The `dead-metric` rule: cross-reference metric names published into
//! the [`Registry`] against the golden system-report fixture.
//!
//! Two directions:
//!
//! * a key present in the golden's `counters`/`gauges` maps that no
//!   publish-site literal can produce is a *schema orphan* — the golden
//!   was hand-edited or the publisher was deleted;
//! * a publish-site literal that no golden key matches is a *dead
//!   metric* — registered and incremented, but the conformance fixture
//!   never observes it, so regressions in it are invisible.
//!
//! Publish sites are string literals inside fns named `publish*`, plus
//! literals passed directly to the `Registry` sinks anywhere
//! (`set_counter`, `set_counter_from`, `set_gauge`, `set_stat`).
//! `format!("{prefix}reads")`-style literals contribute their brace-free
//! remainder as a *suffix fragment*; `set_stat` expands its name into
//! the derived `.mean`/`.min`/`.max`/`.count` series. Matching is
//! suffix-based on `.`-boundaries, mirroring how prefixes are composed
//! at runtime.
//!
//! The `scenarios` crate publishes into per-tenant registries that the
//! System golden never sees, so it is out of scope on both directions.

use std::collections::BTreeSet;
use std::path::Path;

use crate::allowlist::AllowEntry;
use crate::graph::ParsedFile;
use crate::tok::{Tok, TokKind};
use crate::{DetScope, Finding, Rule, TargetKind};

/// Registry methods whose first string argument is a metric name.
const SINKS: &[&str] = &["set_counter", "set_counter_from", "set_gauge", "set_stat"];

/// Suffixes `set_stat` derives from its base name.
const STAT_SUFFIXES: &[&str] = &[".mean", ".min", ".max", ".count"];

/// One literal observed at a publish site.
#[derive(Debug, Clone)]
struct PublishedName {
    /// Brace-free metric name or suffix fragment.
    name: String,
    /// Whether a runtime prefix precedes it (`{prefix}reads`, closure
    /// helpers) — matched as a suffix instead of exactly.
    fragment: bool,
    file: String,
    line: usize,
    /// Enclosing fn scope (`Type::name`) that fn-scoped allowlist entries match.
    scope: String,
}

/// Runs the dead-metric pass. `golden_rel` is the workspace-relative
/// fixture path; a missing fixture disables the rule (the conformance
/// battery owns fixture presence).
pub fn dead_metric_pass(
    root: &Path,
    golden_rel: &str,
    files: &[ParsedFile],
    allowlist: &[AllowEntry],
    findings: &mut Vec<Finding>,
    allowlisted: &mut usize,
) {
    let Ok(golden_text) = std::fs::read_to_string(root.join(golden_rel)) else {
        return;
    };
    let golden = golden_metric_keys(&golden_text);
    if golden.is_empty() {
        return;
    }

    let mut published: Vec<PublishedName> = Vec::new();
    for pf in files {
        if pf.det != DetScope::Strict
            || pf.target != TargetKind::Lib
            || pf.crate_name == "scenarios"
        {
            continue;
        }
        collect_published(pf, &mut published);
    }

    let mut sanction = |rule: Rule, file: &str, scope: &str, token: &str| -> bool {
        let hit = allowlist.iter().any(|a| {
            a.rule == rule.name()
                && (a.path == file || a.path == scope)
                && (a.token == "*" || a.token == token)
        });
        if hit {
            *allowlisted += 1;
        }
        hit
    };

    // Direction 1: published but never observed by the golden.
    for p in &published {
        let covered = golden.iter().any(|k| name_matches(k, &p.name, p.fragment));
        if covered {
            continue;
        }
        let scope = format!("{}#{}", p.file, p.scope);
        if sanction(Rule::DeadMetric, &p.file, &scope, &p.name) {
            continue;
        }
        findings.push(Finding::new(
            Rule::DeadMetric,
            &p.file,
            p.line,
            &p.name,
            format!(
                "metric `{}` is published but absent from {golden_rel} — \
                 dead metric or stale golden",
                p.name
            ),
        ));
    }

    // Direction 2: golden keys nothing can publish.
    for k in &golden {
        let covered = published
            .iter()
            .any(|p| name_matches(k, &p.name, p.fragment));
        if covered {
            continue;
        }
        if sanction(Rule::DeadMetric, golden_rel, golden_rel, k) {
            continue;
        }
        findings.push(Finding::new(
            Rule::DeadMetric,
            golden_rel,
            1,
            k,
            format!("golden metric `{k}` has no publish site in the workspace"),
        ));
    }
}

/// Whether golden key `k` can be produced by published name `name`
/// (exact, or `.`-bounded suffix for prefixed fragments).
fn name_matches(k: &str, name: &str, fragment: bool) -> bool {
    if k == name {
        return true;
    }
    if !fragment {
        return false;
    }
    // A fragment may itself start with '.' (`{name}.mean`).
    if let Some(stripped) = name.strip_prefix('.') {
        return k.ends_with(name) || k == stripped;
    }
    k.ends_with(&format!(".{name}"))
}

/// Extracts `"key":` names inside every `"counters"`/`"gauges"` object
/// of the golden JSON. Line-oriented: the fixture is generated by the
/// repo's own pretty-printer, one key per line.
fn golden_metric_keys(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let mut in_block = false;
    let mut depth_into_block = 0i32;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"counters\"") || t.starts_with("\"gauges\"") {
            in_block = true;
            depth_into_block = 0;
            continue;
        }
        if in_block {
            depth_into_block += t.matches('{').count() as i32;
            depth_into_block -= t.matches('}').count() as i32;
            if depth_into_block < 0 {
                in_block = false;
                continue;
            }
            if let Some(rest) = t.strip_prefix('"') {
                if let Some((key, _)) = rest.split_once('"') {
                    keys.insert(key.to_string());
                }
            }
        }
    }
    keys
}

/// Collects publish-site literals from one file.
fn collect_published(pf: &ParsedFile, out: &mut Vec<PublishedName>) {
    for def in &pf.items.fns {
        if def.in_test {
            continue;
        }
        let in_publish_fn = def.name.starts_with("publish");
        let scope = match &def.owner {
            Some(o) => format!("{}::{}", o.type_name, def.name),
            None => def.name.clone(),
        };
        let toks = &pf.toks;
        for j in def.body.clone() {
            let t = &toks[j];
            if t.kind != TokKind::Lit || !t.text.starts_with('"') {
                continue;
            }
            let Some(body) = t.text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
                continue;
            };
            let sink = sink_before(toks, j, def.body.start);
            // Outside publish fns, only literals handed straight to a
            // Registry sink count — error strings elsewhere are not
            // metric names.
            if !in_publish_fn && sink.is_none() {
                continue;
            }
            let Some((name, braces)) = metric_shape(body) else {
                continue;
            };
            // A literal not handed straight to a sink (the closure
            // helpers in `publish` fns) gets its prefix composed at
            // runtime — match it as a suffix fragment too.
            let fragment = braces || sink.is_none();
            let push = |out: &mut Vec<PublishedName>, name: String| {
                out.push(PublishedName {
                    name,
                    fragment,
                    file: pf.rel_path.clone(),
                    line: t.line,
                    scope: scope.clone(),
                });
            };
            if sink == Some("set_stat") {
                for sfx in STAT_SUFFIXES {
                    push(out, format!("{name}{sfx}"));
                }
            } else {
                push(out, name);
            }
        }
    }
}

/// The Registry sink this literal is an argument of, if the call is
/// within a few tokens back (`reg.set_stat(&format!("…` puts up to five
/// tokens between the sink ident and the literal).
fn sink_before(toks: &[Tok], lit_idx: usize, floor: usize) -> Option<&'static str> {
    let lo = lit_idx.saturating_sub(7).max(floor);
    toks[lo..lit_idx]
        .iter()
        .rev()
        .find_map(|t| SINKS.iter().find(|s| t.is_ident(s)).copied())
}

/// Classifies a literal as a metric name: exact (`hma.swaps`), or a
/// fragment once `{…}` interpolations are stripped (`{prefix}reads` →
/// `reads`). Literals that don't look like metric names (spaces,
/// capitals, empty remainders) are ignored.
fn metric_shape(body: &str) -> Option<(String, bool)> {
    let mut name = String::new();
    let mut fragment = false;
    let mut in_brace = false;
    for c in body.chars() {
        match c {
            '{' => {
                in_brace = true;
                fragment = true;
            }
            '}' => in_brace = false,
            c if in_brace => {
                let _ = c;
            }
            c if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.' => {
                name.push(c)
            }
            _ => return None,
        }
    }
    // A trailing dot marks a publish *prefix* (`publish("hma.", reg)`)
    // that some stats struct completes with its own fragments — not a
    // metric name.
    if name.is_empty() || name.ends_with('.') {
        return None;
    }
    Some((name, fragment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::tok::tokenize;

    #[test]
    fn golden_keys_are_extracted_from_counter_and_gauge_blocks() {
        let text = "{\n  \"counters\": {\n    \"a.x\": 1,\n    \"a.y\": 2\n  },\n  \"other\": {\n    \"not.me\": 3\n  },\n  \"gauges\": {\n    \"g.rate\": 0.5\n  }\n}\n";
        let keys = golden_metric_keys(text);
        assert_eq!(
            keys.iter().cloned().collect::<Vec<_>>(),
            vec!["a.x", "a.y", "g.rate"]
        );
    }

    #[test]
    fn fragments_and_stat_expansion() {
        let src = "fn publish(prefix: &str, reg: &mut Registry) {\n\
                   reg.set_counter_from(&format!(\"{prefix}reads\"), &c);\n\
                   reg.set_stat(&format!(\"{prefix}latency\"), &s);\n\
                   reg.set_counter(\"hma.swaps\", 1);\n}\n";
        let toks = tokenize(src);
        let items = parse_items(&toks);
        let pf = ParsedFile {
            rel_path: "crates/x/src/stats.rs".to_string(),
            crate_name: "x".to_string(),
            det: DetScope::Strict,
            target: TargetKind::Lib,
            toks,
            items,
        };
        let mut names = Vec::new();
        collect_published(&pf, &mut names);
        let got: Vec<(&str, bool)> = names
            .iter()
            .map(|p| (p.name.as_str(), p.fragment))
            .collect();
        assert!(got.contains(&("reads", true)));
        assert!(got.contains(&("latency.mean", true)));
        assert!(got.contains(&("latency.count", true)));
        assert!(got.contains(&("hma.swaps", false)));
    }

    #[test]
    fn prefix_literals_are_not_metric_names() {
        let src = "fn publish_metrics(&self, reg: &mut Registry) {\n\
                   self.hma.stats.publish(\"hma.\", reg);\n\
                   reg.set_counter(\"hma.swaps\", 1);\n}\n";
        let toks = tokenize(src);
        let items = parse_items(&toks);
        let pf = ParsedFile {
            rel_path: "src/system.rs".to_string(),
            crate_name: String::new(),
            det: DetScope::Strict,
            target: TargetKind::Lib,
            toks,
            items,
        };
        let mut names = Vec::new();
        collect_published(&pf, &mut names);
        let got: Vec<&str> = names.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(got, vec!["hma.swaps"]);
    }

    #[test]
    fn suffix_matching_respects_dot_boundaries() {
        assert!(name_matches("cache.l1.reads", "reads", true));
        assert!(!name_matches("cache.l1.proc_reads", "reads", true));
        assert!(name_matches("hma.swaps", "hma.swaps", false));
        assert!(!name_matches("x.hma.swaps", "hma.swaps", false));
        assert!(name_matches("srrt.lat.mean", ".mean", true));
    }
}
