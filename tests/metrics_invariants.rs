//! Integration tests for the paper's reconfiguration invariants, observed
//! through the metrics registry rather than ad-hoc counters.

use chameleon::{Architecture, ScaledParams, System, SystemReport};
use chameleon_core::policy::HmaPolicy;
use chameleon_core::{Flavor, HmaConfig, RemapPolicy};
use chameleon_os::isa::IsaHook;
use chameleon_simkit::mem::ByteSize;

fn small_cfg() -> HmaConfig {
    let mut c = HmaConfig::scaled_laptop();
    c.stacked.capacity = ByteSize::mib(2);
    c.offchip.capacity = ByteSize::mib(10);
    c
}

fn run_tiny(arch: Architecture, epoch_accesses: u64) -> SystemReport {
    let params = ScaledParams::tiny();
    let mut s = System::new(arch, &params);
    s.set_epoch_accesses(epoch_accesses);
    let streams = s.spawn_rate_workload("mcf", 30_000, 1).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    s.run(streams)
}

/// Mean cache-mode group fraction across the run's metrics epochs.
fn epoch_cache_share(report: &SystemReport) -> f64 {
    let epochs = &report.metrics.epochs;
    assert!(!epochs.is_empty(), "run must close at least one epoch");
    let sum: f64 = epochs
        .iter()
        .map(|e| {
            e.gauges
                .get("hma.mode.cache_fraction")
                .copied()
                .unwrap_or(0.0)
        })
        .sum();
    sum / epochs.len() as f64
}

/// Section V: a group that gains a free segment through `ISA-Free` must
/// reconfigure to cache mode — free capacity is never left idle.
#[test]
fn free_segment_gives_cache_mode_residency() {
    let mut p = RemapPolicy::new(small_cfg(), Flavor::Chameleon { opt: false });
    // Fill the whole address space: no free segments, all PoM.
    p.isa_alloc(0, 12 << 20, 0);
    assert_eq!(p.mode_distribution().cache_groups, 0, "fully allocated");
    // Free one segment in the stacked range (basic Chameleon reconfigures
    // on stacked-range frees; Figure 10).
    p.isa_free(1 << 20, 2048, 1_000);
    assert!(
        p.mode_distribution().cache_groups > 0,
        "a group with a free segment must report cache-mode residency"
    );
}

/// The same invariant end-to-end: a Chameleon-Opt run whose footprint
/// leaves segments unallocated reports cache-mode groups in the registry.
#[test]
fn registry_reports_cache_mode_residency_end_to_end() {
    let r = run_tiny(Architecture::ChameleonOpt, 500);
    let cache_groups = r.metrics.counters.get("hma.mode.cache_groups").copied();
    assert!(
        cache_groups.unwrap_or(0) > 0,
        "free segments must keep some groups in cache mode; counters: {:?}",
        r.metrics.counters.keys().collect::<Vec<_>>()
    );
    // The registry mirrors the legacy report fields.
    assert!(r.metrics.counters["hma.demand_accesses"] > 0);
    let gauge = r.metrics.gauges["hma.stacked_hit_rate"];
    assert!((gauge - r.stacked_hit_rate).abs() < 1e-12);
}

/// Chameleon-Opt's allocation-aware reconfiguration keeps at least as
/// large a share of groups in cache mode as basic Chameleon, epoch by
/// epoch, on the same workload.
#[test]
fn opt_cache_mode_epoch_share_at_least_basic() {
    let basic = run_tiny(Architecture::Chameleon, 500);
    let opt = run_tiny(Architecture::ChameleonOpt, 500);
    let (sb, so) = (epoch_cache_share(&basic), epoch_cache_share(&opt));
    assert!(
        so >= sb,
        "Chameleon-Opt epoch cache share ({so:.4}) must be >= Chameleon's ({sb:.4})"
    );
}

/// While a group sits in cache mode it services misses with fills and
/// writebacks, never swaps: swaps are a PoM-mode mechanism.
#[test]
fn cache_mode_never_swaps() {
    let mut p = RemapPolicy::new(small_cfg(), Flavor::Chameleon { opt: true });
    // Allocate only the off-chip range: every group keeps its stacked
    // segment free, so all groups boot — and stay — in cache mode.
    p.isa_alloc(2 << 20, 10 << 20, 0);
    assert_eq!(p.mode_distribution().pom_groups, 0);
    let mut now = 0u64;
    for i in 0..5_000u64 {
        now += 1_000;
        // Stride through the off-chip region to force misses and fills.
        p.access((2 << 20) + (i * 4096) % (8 << 20), i % 3 == 0, now);
    }
    assert_eq!(p.mode_distribution().pom_groups, 0, "still all cache mode");
    assert_eq!(p.stats().swaps.value(), 0, "cache mode must not swap");
    assert!(p.stats().fills.value() > 0, "misses are serviced by fills");
    // The event trace agrees: no Swap events were recorded.
    let trace = p.events().expect("chameleon records events");
    use chameleon_simkit::metrics::EventKind;
    assert!(trace.iter().all(|e| !matches!(e.kind, EventKind::Swap)));
}
