//! Minimal SARIF 2.1.0 emitter for CI code-scanning annotations.
//!
//! Hand-rolled like the CLI's `--json` output (the linter is
//! dependency-free by design). Only the subset GitHub code scanning
//! reads is emitted: tool driver with rule metadata, one result per
//! finding with a physical location, and the baseline state mapped onto
//! SARIF's `baselineState` so pre-existing findings annotate without
//! failing the job.

use crate::{Finding, Rule};

const ALL_RULES: &[Rule] = &[
    Rule::HotPathAlloc,
    Rule::Determinism,
    Rule::PanicPolicy,
    Rule::UnsafeForbid,
    Rule::HotPathTransitive,
    Rule::DeterminismTaint,
    Rule::HotPathRecursion,
    Rule::LossyCast,
    Rule::DeadMetric,
    Rule::DeadPub,
];

/// Renders findings as a SARIF 2.1.0 document. `new` holds the keys of
/// findings not covered by the baseline (reported as `new`; the rest as
/// `unchanged`).
pub fn to_sarif(findings: &[Finding], new_keys: &[&str]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"chameleon-lint\",\n          \"informationUri\": \"https://example.invalid/chameleon\",\n          \"rules\": [\n",
    );
    for (i, r) in ALL_RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"name\": {}}}{}\n",
            json_str(r.name()),
            json_str(&camel(r.name())),
            if i + 1 < ALL_RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let state = if new_keys.contains(&f.key.as_str()) {
            "new"
        } else {
            "unchanged"
        };
        let mut message = f.message.clone();
        if !f.blame.is_empty() {
            message.push_str(&format!(" [blame: {}]", f.blame.join(" -> ")));
        }
        out.push_str(&format!(
            "        {{\"ruleId\": {}, \"level\": \"error\", \"baselineState\": \"{state}\", \"message\": {{\"text\": {}}}, \"partialFingerprints\": {{\"chameleonLintKey\": {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            json_str(f.rule.name()),
            json_str(&message),
            json_str(&f.key),
            json_str(&f.file),
            f.line.max(1),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn camel(kebab: &str) -> String {
    kebab
        .split('-')
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(f) => f.to_ascii_uppercase().to_string() + c.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_has_rules_results_and_baseline_state() {
        let f = Finding::graph(
            Rule::HotPathTransitive,
            "crates/x/src/lib.rs",
            7,
            "vec![",
            "helper",
            "alloc reachable from hot root".to_string(),
            vec!["a".to_string(), "b".to_string()],
        );
        let old = Finding::new(
            Rule::PanicPolicy,
            "src/lib.rs",
            3,
            ".unwrap()",
            "x.unwrap()",
            "unjustified unwrap".to_string(),
        );
        let sarif = to_sarif(&[f.clone(), old], &[f.key.as_str()]);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"hot-path-transitive\""));
        assert!(sarif.contains("\"baselineState\": \"new\""));
        assert!(sarif.contains("\"baselineState\": \"unchanged\""));
        assert!(sarif.contains("\"startLine\": 7"));
        assert!(sarif.contains("[blame: a -> b]"));
    }
}
