//! Integration tests for the per-epoch timelines the figure runners emit
//! from the metrics registry.

use chameleon::{Architecture, ScaledParams, System};
use chameleon_bench::{autonuma_timeline, EpochTimeline, NumaEpoch};
use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::metrics::SCHEMA_VERSION;

fn tiny_timeline() -> (EpochTimeline, u64) {
    let params = ScaledParams::tiny();
    let mut s = System::new(Architecture::ChameleonOpt, &params);
    s.set_epoch_accesses(500);
    let streams = s.spawn_rate_workload("mcf", 30_000, 1).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    let report = s.run(streams);
    let total = report.metrics.counters["hma.demand_accesses"];
    (EpochTimeline::from_report(&report), total)
}

#[test]
fn timeline_covers_the_whole_run() {
    let (tl, total_demand) = tiny_timeline();
    assert_eq!(tl.schema_version, SCHEMA_VERSION);
    assert_eq!(tl.arch, "Chameleon-Opt");
    assert_eq!(tl.app, "mcf");
    assert!(tl.epochs.len() > 1, "tiny epochs must close more than once");
    for (i, e) in tl.epochs.iter().enumerate() {
        assert_eq!(e.index as usize, i);
        assert!((0.0..=1.0).contains(&e.hit_rate), "hit rate in [0,1]");
        assert!((0.0..=1.0).contains(&e.cache_fraction));
        assert!(e.stacked_hits <= e.demand_accesses);
    }
    assert!(
        tl.epochs.windows(2).all(|w| w[0].end_at < w[1].end_at),
        "epoch boundaries advance monotonically in sim time"
    );
    // Conservation: per-epoch deltas add back up to the final aggregate.
    let summed: u64 = tl.epochs.iter().map(|e| e.demand_accesses).sum();
    assert_eq!(summed, total_demand);
}

#[test]
fn timeline_round_trips_through_json() {
    let (tl, _) = tiny_timeline();
    let json = serde_json::to_string_pretty(&tl).unwrap();
    let back: EpochTimeline = serde_json::from_str(&json).unwrap();
    assert_eq!(back, tl);
}

/// Consumes the artifact `fig15_hit_rate` commits under `results/`.
#[test]
fn committed_fig15_timeline_is_consumable() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/fig15_hit_rate_timeline.json");
    let data = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed timeline {path:?} must be readable: {e}"));
    let timelines: Vec<EpochTimeline> = serde_json::from_str(&data).unwrap();
    // Four architecture columns x the Table II applications.
    assert_eq!(timelines.len() % 4, 0);
    assert!(!timelines.is_empty());
    for tl in &timelines {
        assert_eq!(tl.schema_version, SCHEMA_VERSION);
        assert!(
            !tl.epochs.is_empty(),
            "{}/{} has an empty timeline",
            tl.arch,
            tl.app
        );
        assert!(
            tl.epochs.windows(2).all(|w| w[0].end_at < w[1].end_at),
            "{}/{} timeline is out of order",
            tl.arch,
            tl.app
        );
    }
    // The runner emits exactly the Figure 15 columns.
    for arch in ["Alloy-Cache", "PoM", "Chameleon", "Chameleon-Opt"] {
        assert!(timelines.iter().any(|t| t.arch == arch), "missing {arch}");
    }
}

/// Figure 2c's rows come from the registry: one per closed epoch, each
/// epoch's migrations landing in the next record.
#[test]
fn autonuma_timeline_accounts_for_every_migration() {
    let mut params = ScaledParams::tiny();
    // A 2 MiB stacked node fills within the run, so -ENOMEM shows up too.
    params.hma.stacked.capacity = ByteSize::mib(2);
    let mut s = System::new(Architecture::AutoNuma { threshold_pct: 90 }, &params);
    s.set_epoch_accesses(500);
    let streams = s.spawn_rate_workload("mcf", 400_000, 1).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    let report = s.run(streams);
    let records = &report.metrics.epochs;
    assert!(
        !records[0].deltas.contains_key("os.migrations"),
        "nothing migrates before the first epoch closes"
    );
    let rows = autonuma_timeline(&report, &params);
    assert_eq!(rows.len(), records.len() - 1, "one row per closed epoch");
    let counters = &report.metrics.counters;
    let migrated: u64 = rows.iter().map(|r| r.migrated).sum();
    let enomem: u64 = rows.iter().map(|r| r.enomem).sum();
    assert_eq!(migrated, counters["os.migrations"]);
    assert_eq!(enomem, counters["os.migration_enomem"]);
    assert!(rows.iter().any(|r| r.migrated > 0), "the balancer migrates");
    assert!(enomem > 0, "the 2 MiB stacked node fills up");
    for r in &rows {
        assert!((0.0..=1.0).contains(&r.stacked_hit_rate));
        assert!((0.0..=1.0).contains(&r.remote_ratio));
    }
}

/// Consumes the artifact `fig02c_autonuma_timeline` commits under
/// `results/`.
#[test]
fn committed_fig02c_timeline_is_consumable() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/fig02c_autonuma_timeline.json");
    let data = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed timeline {path:?} must be readable: {e}"));
    let rows: Vec<NumaEpoch> = serde_json::from_str(&data).unwrap();
    assert!(!rows.is_empty());
    for (i, r) in rows.iter().enumerate() {
        assert!((0.0..=1.0).contains(&r.stacked_hit_rate), "row {i}");
        assert!((0.0..=1.0).contains(&r.remote_ratio), "row {i}");
    }
}
