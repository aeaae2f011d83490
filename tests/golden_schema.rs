//! Golden-report tests: the committed `results/fixtures/` report must keep
//! deserialising, the JSON shape a fresh run produces must match the
//! fixture's shape key-for-key, and the fresh report must equal the
//! fixture byte for byte. A shape failure prints the exact keys that
//! appeared or vanished; a byte failure means the simulated results
//! changed.

use chameleon::{Architecture, ScaledParams, System, SystemReport};
use chameleon_simkit::metrics::SCHEMA_VERSION;
use serde::{Serialize, Value};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/fixtures/system_report.golden.json")
}

fn object_keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(pairs) => {
            let mut keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            keys
        }
        other => panic!("expected a JSON object, got {other:?}"),
    }
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

/// Asserts two key sets match, printing a readable diff otherwise.
fn assert_same_keys(context: &str, golden: &[String], current: &[String]) {
    let removed: Vec<&String> = golden.iter().filter(|k| !current.contains(k)).collect();
    let added: Vec<&String> = current.iter().filter(|k| !golden.contains(k)).collect();
    assert!(
        removed.is_empty() && added.is_empty(),
        "schema drift in {context}:\n  keys removed since the fixture: {removed:?}\n  \
         keys added since the fixture:   {added:?}\n  \
         (if intentional, regenerate with `cargo run --release --example metrics_dump`)"
    );
}

/// The same run the fixture was generated from (`examples/metrics_dump`).
fn fresh_report() -> SystemReport {
    let params = ScaledParams::tiny();
    let mut system = System::new(Architecture::ChameleonOpt, &params);
    system.set_epoch_accesses(500);
    let streams = system.spawn_rate_workload("mcf", 30_000, 1).unwrap();
    system.prefault_all().unwrap();
    system.reset_measurement();
    system.run(streams)
}

#[test]
fn golden_fixture_still_deserialises() {
    let data = std::fs::read_to_string(fixture_path()).expect("committed fixture present");
    let report: SystemReport = serde_json::from_str(&data).expect("fixture deserialises");
    assert_eq!(report.arch, "Chameleon-Opt");
    assert_eq!(report.metrics.schema_version, SCHEMA_VERSION);
    assert!(!report.metrics.epochs.is_empty());
    assert!(!report.metrics.counters.is_empty());
}

#[test]
fn report_shape_matches_golden_fixture() {
    let data = std::fs::read_to_string(fixture_path()).expect("committed fixture present");
    let golden: Value = serde_json::parse(&data).expect("fixture parses");
    let current = fresh_report().to_value();

    assert_same_keys(
        "SystemReport",
        &object_keys(&golden),
        &object_keys(&current),
    );

    let (gm, cm) = (field(&golden, "metrics"), field(&current, "metrics"));
    assert_same_keys("SystemReport.metrics", &object_keys(gm), &object_keys(cm));
    for section in ["counters", "gauges"] {
        assert_same_keys(
            &format!("metrics.{section}"),
            &object_keys(field(gm, section)),
            &object_keys(field(cm, section)),
        );
    }
    assert_eq!(
        field(gm, "schema_version").as_u64(),
        Some(u64::from(SCHEMA_VERSION)),
        "bump the fixture after a schema-version change"
    );
}

/// Pins simulated results across commits: a host-side optimisation must
/// leave the report unchanged down to the last byte. Regenerate the
/// fixture only for an intended change to simulated results.
#[test]
fn report_matches_golden_fixture_byte_for_byte() {
    let golden = std::fs::read_to_string(fixture_path()).expect("committed fixture present");
    let fresh = serde_json::to_string_pretty(&fresh_report()).expect("report serialises") + "\n";
    if fresh != golden {
        let line = fresh
            .lines()
            .zip(golden.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "fresh report differs from the golden fixture ({} vs {} bytes), first at line {}:\n  \
             fresh:  {:?}\n  golden: {:?}\n  \
             (if the change to simulated results is intended, regenerate with \
             `cargo run --release --example metrics_dump`)",
            fresh.len(),
            golden.len(),
            line + 1,
            fresh.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}
