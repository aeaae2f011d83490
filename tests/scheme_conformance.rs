//! Cross-scheme conformance battery: every registered memory
//! organisation ([`Architecture::all`]) must satisfy the same observable
//! contracts, whatever its internal mechanism. A new `HmaPolicy`
//! implementation only has to be added to the registry to be covered:
//!
//! * **Access conservation** — every reference issued to the policy
//!   records exactly one requester-visible latency, the stacked/buffer/
//!   stale service classes never exceed the references issued, and the
//!   hit rate stays a probability.
//! * **Residency accounting** — stacked-DRAM occupancy never exceeds
//!   capacity, at the end of *every* metrics epoch, not just at the end
//!   of the run.
//! * **Metrics schema** — each scheme publishes exactly the counter and
//!   gauge keys of the golden report (`results/fixtures/`), so every
//!   `hma.*` counter (scheme-specific ones at zero when unused), the
//!   residency gauges and the device/OS families, and nothing else.
//! * **Pinned reports** — each scheme's report from the battery cell
//!   hashes to a committed digest, so a refactor that claims to keep
//!   simulated results must keep every scheme's, not only the golden
//!   fixture's Chameleon-Opt run.
//! * **Bit-identical replay** — the sweep engine's worker count is a
//!   pure optimisation: serial and parallel sweeps must serialise
//!   byte-identically.
//!
//! Lint cleanliness (no findings beyond the checked-in baseline) is
//! checked by `crates/lint/tests/workspace_clean.rs`.

use chameleon::{Architecture, ScaledParams, System, SystemReport};
use chameleon_simkit::hash::fnv1a;
use chameleon_sweep::{Job, SweepEngine};

/// Instruction budget per core for one battery cell: enough traffic to
/// close several metrics epochs and exercise fills/evictions at the tiny
/// scale, small enough that the whole registry stays test-suite friendly.
const INSTRUCTIONS: u64 = 20_000;

/// Epoch length in LLC misses; short so each cell closes many epochs and
/// the per-epoch residency assertion actually samples mid-run states.
const EPOCH_ACCESSES: u64 = 500;

/// Conservation-relevant counters snapshotted from the live policy
/// (the serialised report does not carry the raw `RunningStat`s).
struct Conservation {
    demand: u64,
    latency_samples: u64,
    stacked_hits: u64,
    buffer_hits: u64,
    stale: u64,
}

/// Runs one tiny measured cell and returns the report plus the policy's
/// conservation counters.
fn run_cell(arch: Architecture) -> (SystemReport, Conservation) {
    run_cell_with(arch, &ScaledParams::tiny())
}

fn run_cell_with(arch: Architecture, params: &ScaledParams) -> (SystemReport, Conservation) {
    let mut s = System::new(arch, params);
    s.set_epoch_accesses(EPOCH_ACCESSES);
    let streams = s.spawn_rate_workload("mcf", INSTRUCTIONS, 7).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    let report = s.run(streams);
    let stats = s.policy().stats();
    let conservation = Conservation {
        demand: stats.demand_accesses.value(),
        latency_samples: stats.access_latency.count(),
        stacked_hits: stats.stacked_hits.value(),
        buffer_hits: stats.buffer_hits.value(),
        stale: stats.stale_accesses.value(),
    };
    (report, conservation)
}

fn canonical(report: &SystemReport) -> String {
    serde_json::to_string(report).expect("reports serialise")
}

/// `fnv1a(canonical(report))` of each architecture's [`run_cell`]
/// report, keyed by its [`Architecture::label`], in
/// [`Architecture::all`] order. Change an entry only with an intended
/// change to that scheme's simulated results; a mismatch prints the
/// whole fresh table to paste here.
const REPORT_DIGESTS: [(&str, u64); 14] = [
    ("baseline_small_DDR (no stacked DRAM)", 0x9de819d420dd4c7d),
    ("baseline_large_DDR (no stacked DRAM)", 0xa5d0bab734daf3b9),
    ("Alloy-Cache", 0xde67f3fe5d8fd42b),
    ("PoM", 0x03347433efa05aab),
    ("CAMEO", 0x26ab07b750166f45),
    ("Chameleon", 0x910de397afca5cf7),
    ("Chameleon-Opt", 0xcd36f868ab86cdad),
    ("Polymorphic_memory", 0x57a17c072098cfef),
    ("Unison-Cache", 0xfd66b7f73ef51ad9),
    ("MemCache", 0x8a02d02c84b46950),
    ("CH-Flex", 0x3d8d435b419013e7),
    ("numaAware_allocator", 0xa2f17409bcbdca30),
    ("autoNUMA_90percent", 0x5b374ad2b7b9ada2),
    ("online_guidance", 0xeeed713b3adb3d2f),
];

/// `fnv1a(canonical(report))` of Chameleon-Opt's battery cell with
/// group-aware placement (the OS-side segment-group ledger scoring every
/// allocation), which no registry scheme enables.
const GROUP_AWARE_DIGEST: u64 = 0x340b239631940e65;

#[test]
fn access_conservation_holds_for_every_architecture() {
    let mut digests = Vec::new();
    for arch in Architecture::all() {
        let (report, c) = run_cell(arch);
        digests.push((arch.label(), fnv1a(canonical(&report).as_bytes())));
        assert!(c.demand > 0, "{arch:?}: cell issued no memory references");
        assert_eq!(
            c.latency_samples, c.demand,
            "{arch:?}: each reference must record exactly one latency"
        );
        assert!(
            c.stacked_hits + c.buffer_hits + c.stale <= c.demand,
            "{arch:?}: service classes exceed references issued \
             ({} + {} + {} > {})",
            c.stacked_hits,
            c.buffer_hits,
            c.stale,
            c.demand
        );
        assert!(
            (0.0..=1.0).contains(&report.stacked_hit_rate),
            "{arch:?}: hit rate {} is not a probability",
            report.stacked_hit_rate
        );
        assert!(report.amat > 0.0, "{arch:?}: AMAT must be positive");
    }
    let changed: Vec<&str> = digests
        .iter()
        .filter(|(name, d)| !REPORT_DIGESTS.contains(&(name.as_str(), *d)))
        .map(|(name, _)| name.as_str())
        .collect();
    if !changed.is_empty() || digests.len() != REPORT_DIGESTS.len() {
        let table: String = digests
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
            .collect();
        panic!(
            "simulated reports changed for {changed:?}; if intended, replace \
             REPORT_DIGESTS with:\n[\n{table}]"
        );
    }
}

#[test]
fn group_aware_placement_report_is_pinned() {
    let mut params = ScaledParams::tiny();
    params.group_aware_placement = true;
    let (report, _) = run_cell_with(Architecture::ChameleonOpt, &params);
    let digest = fnv1a(canonical(&report).as_bytes());
    assert_eq!(
        digest, GROUP_AWARE_DIGEST,
        "group-aware Chameleon-Opt report changed: {digest:#018x}"
    );
}

#[test]
fn residency_stays_within_capacity_every_epoch() {
    for arch in Architecture::all() {
        let params = ScaledParams::tiny();
        let mut s = System::new(arch, &params);
        s.set_epoch_accesses(EPOCH_ACCESSES);
        let streams = s.spawn_rate_workload("mcf", INSTRUCTIONS, 7).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        let report = s.run(streams);
        let (resident, capacity) = s.policy().stacked_residency();
        assert!(capacity > 0, "{arch:?}: capacity must be non-zero");
        assert!(
            resident <= capacity,
            "{arch:?}: final residency {resident} exceeds capacity {capacity}"
        );
        assert!(
            !report.metrics.epochs.is_empty(),
            "{arch:?}: cell must close at least one epoch"
        );
        for epoch in &report.metrics.epochs {
            let r = epoch.gauges["hma.residency.resident_bytes"];
            let cap = epoch.gauges["hma.residency.capacity_bytes"];
            assert!(
                r <= cap,
                "{arch:?} epoch {}: residency {r} exceeds capacity {cap}",
                epoch.index
            );
        }
    }
}

#[test]
fn metrics_schema_is_complete_for_every_architecture() {
    let golden: SystemReport = serde_json::from_str(
        &std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("results/fixtures/system_report.golden.json"),
        )
        .expect("committed golden report present"),
    )
    .expect("golden report deserialises");
    let g = &golden.metrics;
    for arch in Architecture::all() {
        let (report, c) = run_cell(arch);
        let m = &report.metrics;
        assert_eq!(
            m.schema_version,
            chameleon_simkit::metrics::SCHEMA_VERSION,
            "{arch:?}"
        );
        // Every scheme publishes the golden report's counter and gauge
        // keys, no more and no fewer: an unused mechanism reports zero,
        // it does not vanish from the schema.
        assert_eq!(
            m.counters.keys().collect::<Vec<_>>(),
            g.counters.keys().collect::<Vec<_>>(),
            "{arch:?}: counter keys differ from the golden report's"
        );
        assert_eq!(
            m.gauges.keys().collect::<Vec<_>>(),
            g.gauges.keys().collect::<Vec<_>>(),
            "{arch:?}: gauge keys differ from the golden report's"
        );
        // The registry mirrors the legacy report fields exactly.
        assert_eq!(m.counters["hma.demand_accesses"], c.demand);
    }
}

#[test]
fn serial_and_parallel_sweeps_are_bit_identical() {
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = 10_000;
    let jobs: Vec<Job> = Architecture::all()
        .into_iter()
        .map(|arch| Job::new(arch, "mcf", &params, 3))
        .collect();
    let serial = SweepEngine::new()
        .with_workers(1)
        .quiet()
        .run(&jobs)
        .expect("serial sweep runs");
    let parallel = SweepEngine::new()
        .with_workers(4)
        .quiet()
        .run(&jobs)
        .expect("parallel sweep runs");
    assert_eq!(serial.reports.len(), jobs.len());
    assert_eq!(parallel.reports.len(), jobs.len());
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(
            canonical(s),
            canonical(p),
            "{}: worker count changed the simulated outcome",
            s.arch
        );
    }
}
