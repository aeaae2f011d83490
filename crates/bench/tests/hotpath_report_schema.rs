//! Golden-schema test for the committed `BENCH_hotpath.json`: the perf
//! trajectory is only useful if every commit's numbers are comparable,
//! so the committed report must keep the shape `bench_hotpath` writes —
//! schema version, the measuring host's CPU count, per-architecture
//! cells, and a Chameleon-Opt cell (the drift gate's reference point).

use serde::Value;

fn committed_report() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json");
    let data = std::fs::read_to_string(&path).expect("committed BENCH_hotpath.json present");
    serde_json::parse(&data).expect("committed report parses")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name:?}")),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

#[test]
fn committed_hotpath_report_matches_v4_schema() {
    let report = committed_report();
    assert_eq!(
        field(&report, "schema_version").as_u64(),
        Some(4),
        "BENCH_hotpath.json must be regenerated at schema v4"
    );
    assert!(
        field(&report, "host_cpus").as_u64().unwrap_or(0) > 0,
        "the report must name the measuring host's CPU count"
    );
    let Value::Array(cells) = field(&report, "cells") else {
        panic!("cells must be an array");
    };
    assert!(!cells.is_empty(), "committed report has no cells");
    for cell in cells {
        let ns = field(cell, "ns_per_access")
            .as_f64()
            .expect("ns_per_access");
        assert!(ns > 0.0, "ns_per_access must be positive");
    }
}

#[test]
fn committed_report_carries_stage_breakdown() {
    let report = committed_report();
    let stages = field(&report, "stages");
    let decode = field(stages, "decode_ns_per_access")
        .as_f64()
        .expect("decode_ns_per_access");
    let walk = field(stages, "walk_ns_per_access")
        .as_f64()
        .expect("walk_ns_per_access");
    let glue = field(stages, "translate_glue_ns_per_access")
        .as_f64()
        .expect("translate_glue_ns_per_access");
    let total = field(stages, "total_ns_per_access")
        .as_f64()
        .expect("total_ns_per_access");
    assert!(decode > 0.0, "decode stage must be measured");
    assert!(walk > 0.0, "walk stage must be measured");
    assert!(glue >= 0.0, "glue residual is clamped non-negative");
    // The glue is defined as the residual, so the parts must re-add to
    // the measured total (up to float formatting).
    assert!(
        (decode + walk + glue - total).abs() <= 1e-6 * total.max(1.0),
        "stage parts must sum to the total: {decode} + {walk} + {glue} != {total}"
    );
}

#[test]
fn committed_report_covers_chameleon_opt() {
    let report = committed_report();
    let Value::Array(cells) = field(&report, "cells") else {
        panic!("cells must be an array");
    };
    assert!(
        cells
            .iter()
            .any(|c| field(c, "arch").as_str() == Some("Chameleon-Opt")),
        "missing Chameleon-Opt cell — the drift gate needs it"
    );
}
