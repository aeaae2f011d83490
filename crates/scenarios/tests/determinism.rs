//! The scenario determinism gate: a 1,000-job Poisson consolidation
//! scenario must be bit-deterministic from its seed — identical per-job
//! timelines and an identical `SystemReport` JSON across repeated runs
//! and across grid worker counts. Pinned digests also hold scenario
//! reports fixed across commits.

use chameleon::{Architecture, ScaledParams};
use chameleon_scenarios::{generate_jobs, run_grid, run_scenario, ScenarioSpec};
use chameleon_simkit::hash::fnv1a;

/// `fnv1a` of the serialised [`run_scenario`] report for each
/// `(scenario, architecture)` cell at [`ScaledParams::tiny`], seed 1.
/// Change an entry only with an intended change to simulated results;
/// a mismatch prints the replacement table.
/// The CH-Flex cells are the only pinned runs whose process exits reach
/// its ring-growing `activate` and its off-chip `isa_free`.
const REPORT_DIGESTS: [(&str, &str, u64); 5] = [
    ("small", "Chameleon", 0x04032c354d9ec8e4),
    ("small", "Chameleon-Opt", 0x4e585bf4e5c17041),
    ("medium", "Chameleon-Opt", 0x7335e2b5cfb202ef),
    ("small", "CH-Flex", 0x1c0c2065ee1374e8),
    ("medium", "CH-Flex", 0xf877313c1d57e85d),
];

#[test]
fn scenario_reports_match_pinned_digests() {
    let params = ScaledParams::tiny();
    let cells = [
        (ScenarioSpec::small(), Architecture::Chameleon),
        (ScenarioSpec::small(), Architecture::ChameleonOpt),
        (ScenarioSpec::medium(), Architecture::ChameleonOpt),
        (ScenarioSpec::small(), Architecture::ChFlex),
        (ScenarioSpec::medium(), Architecture::ChFlex),
    ];
    let digests: Vec<(String, String, u64)> = cells
        .iter()
        .map(|(spec, arch)| {
            let report = run_scenario(*arch, &params, spec, 1);
            let json = serde_json::to_string(&report).expect("report serialises");
            (spec.name.clone(), arch.label(), fnv1a(json.as_bytes()))
        })
        .collect();
    let pinned = REPORT_DIGESTS
        .iter()
        .map(|&(s, a, d)| (s.to_owned(), a.to_owned(), d));
    if !digests.iter().cloned().eq(pinned) {
        let table: String = digests
            .iter()
            .map(|(s, a, d)| format!("    (\"{s}\", \"{a}\", {d:#018x}),\n"))
            .collect();
        panic!("scenario reports changed; if intended, replace REPORT_DIGESTS with:\n[\n{table}]");
    }
}

#[test]
fn thousand_job_scenario_is_bit_deterministic() {
    let spec = ScenarioSpec::thousand();
    assert_eq!(spec.total_jobs(), 1000);
    let params = ScaledParams::tiny();
    let a = run_scenario(Architecture::ChameleonOpt, &params, &spec, 42);
    let b = run_scenario(Architecture::ChameleonOpt, &params, &spec, 42);
    assert_eq!(a.jobs.len(), 1000);
    // Timelines must agree job for job...
    assert_eq!(a.jobs, b.jobs, "per-job timelines must be identical");
    // ...and the full reports (SystemReport metrics export included)
    // must serialise to identical bytes.
    let ja = serde_json::to_string(&a).expect("report serialises");
    let jb = serde_json::to_string(&b).expect("report serialises");
    assert_eq!(ja, jb, "repeated runs must be bit-identical");
}

#[test]
fn grid_is_identical_across_worker_counts() {
    let spec = ScenarioSpec::small();
    let params = ScaledParams::tiny();
    let archs = [
        Architecture::Guided,
        Architecture::AutoNuma { threshold_pct: 90 },
        Architecture::NumaFirstTouch,
        Architecture::ChameleonOpt,
    ];
    let serial = run_grid(&archs, &params, &spec, 7, 1);
    let parallel = run_grid(&archs, &params, &spec, 7, 4);
    let js = serde_json::to_string(&serial).expect("reports serialise");
    let jp = serde_json::to_string(&parallel).expect("reports serialise");
    assert_eq!(js, jp, "1-worker and 4-worker grids must agree bit-for-bit");
}

#[test]
fn different_seeds_produce_different_scenarios() {
    let spec = ScenarioSpec::small();
    let params = ScaledParams::tiny();
    let a = run_scenario(Architecture::ChameleonOpt, &params, &spec, 1);
    let b = run_scenario(Architecture::ChameleonOpt, &params, &spec, 2);
    assert_ne!(
        serde_json::to_string(&a).expect("serialises"),
        serde_json::to_string(&b).expect("serialises"),
        "seed must steer arrivals and address streams"
    );
}

#[test]
fn job_generation_is_stable_across_calls() {
    let spec = ScenarioSpec::thousand();
    let a = generate_jobs(&spec, 99);
    let b = generate_jobs(&spec, 99);
    assert_eq!(a, b);
}

#[test]
fn guided_scenario_reports_guidance_activity() {
    let spec = ScenarioSpec::small();
    let params = ScaledParams::tiny();
    let r = run_scenario(Architecture::Guided, &params, &spec, 42);
    let c = &r.system.metrics.counters;
    assert!(
        c.get("guidance.samples").copied().unwrap_or(0) > 0,
        "the guided policy must profile scenario traffic"
    );
    // The schema keys exist on every architecture, zeros elsewhere.
    let r2 = run_scenario(Architecture::NumaFirstTouch, &params, &spec, 42);
    assert_eq!(
        r2.system
            .metrics
            .counters
            .get("guidance.promotions")
            .copied(),
        Some(0),
        "non-guided runs publish the guidance keys as zeros"
    );
}
