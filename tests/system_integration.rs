//! Cross-crate integration tests: the full OS + cache + CPU + memory
//! architecture stack, driven end-to-end.

use chameleon::{Architecture, ScaledParams, System};

fn tiny() -> ScaledParams {
    let mut p = ScaledParams::tiny();
    p.instructions_per_core = 30_000;
    p
}

fn run(arch: Architecture, app: &str, seed: u64) -> chameleon::SystemReport {
    let params = tiny();
    let mut s = System::new(arch, &params);
    let streams = s
        .spawn_rate_workload(app, params.instructions_per_core, seed)
        .unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    s.run(streams)
}

#[test]
fn deterministic_across_runs() {
    let a = run(Architecture::ChameleonOpt, "mcf", 11);
    let b = run(Architecture::ChameleonOpt, "mcf", 11);
    assert_eq!(a.run.makespan(), b.run.makespan());
    assert_eq!(a.swaps, b.swaps);
    assert_eq!(a.stacked_hit_rate, b.stacked_hit_rate);
}

#[test]
fn different_seeds_differ() {
    let a = run(Architecture::Pom, "mcf", 1);
    let b = run(Architecture::Pom, "mcf", 2);
    assert_ne!(a.run.makespan(), b.run.makespan());
}

#[test]
fn every_architecture_completes() {
    for arch in [
        Architecture::FlatSmall,
        Architecture::FlatLarge,
        Architecture::Alloy,
        Architecture::Cameo,
        Architecture::Pom,
        Architecture::Polymorphic,
        Architecture::Chameleon,
        Architecture::ChameleonOpt,
        Architecture::NumaFirstTouch,
        Architecture::AutoNuma { threshold_pct: 90 },
    ] {
        let r = run(arch, "bwaves", 3);
        assert!(
            r.run.geomean_ipc() > 0.0 && r.run.geomean_ipc() <= 1.0,
            "{arch:?}: ipc {}",
            r.run.geomean_ipc()
        );
        assert!(r.stacked_hit_rate <= 1.0, "{arch:?}");
        assert_eq!(r.run.total_instructions(), 2 * 30_000, "{arch:?}");
    }
}

#[test]
fn reports_serialize_roundtrip() {
    let r = run(Architecture::Chameleon, "stream", 4);
    let json = serde_json::to_string(&r).unwrap();
    let back: chameleon::SystemReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.arch, r.arch);
    assert_eq!(back.swaps, r.swaps);
    assert_eq!(back.run.makespan(), r.run.makespan());
}

#[test]
fn paper_protocol_runs_end_to_end() {
    let params = tiny();
    let mut s = System::new(Architecture::ChameleonOpt, &params);
    let r = s.run_paper_protocol("lbm", 5).unwrap();
    assert!(r.run.geomean_ipc() > 0.0);
    assert_eq!(r.workload, "lbm");
}

#[test]
fn flat_architectures_never_swap_or_hit_stacked() {
    for arch in [Architecture::FlatSmall, Architecture::FlatLarge] {
        let r = run(arch, "hpccg", 6);
        assert_eq!(r.swaps, 0, "{arch:?}");
        assert_eq!(r.stacked_hit_rate, 0.0, "{arch:?}");
        assert_eq!(r.isa_swaps, 0, "{arch:?}");
    }
}

#[test]
fn isa_notifications_flow_for_managed_architectures() {
    let params = tiny();
    let mut s = System::new(Architecture::Chameleon, &params);
    let _ = s
        .spawn_rate_workload("mcf", params.instructions_per_core, 7)
        .unwrap();
    s.prefault_all().unwrap();
    assert!(
        s.policy().stats().isa_allocs.value() > 0,
        "prefault must raise ISA-Alloc"
    );
}

/// AutoNUMA migrates pages every epoch, so the kernel retires
/// translations throughout the measured run and the translation memo
/// flushes continuously. In debug builds every memo hit is checked
/// against the page table, so this cell exercises that flush path.
#[test]
fn autonuma_migration_cell_runs_with_live_translation_check() {
    let params = ScaledParams::tiny();
    let mut s = System::new(Architecture::AutoNuma { threshold_pct: 90 }, &params);
    s.set_epoch_accesses(500);
    let streams = s.spawn_rate_workload("stream", 60_000, 3).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    let r = s.run(streams);
    assert!(
        r.metrics.counters["os.migrations"] > 0,
        "cell must actually migrate to be a test"
    );
}

/// An undersized flat memory pages against the SSD, so translations are
/// retired throughout the measured run and demand faults fire on both
/// the memo-hit and memo-miss paths, with the debug translation check
/// live on every hit.
#[test]
fn swap_pressure_cell_runs_with_live_translation_check() {
    let mut params = ScaledParams::tiny();
    params.hma.offchip.capacity = chameleon::simkit::mem::ByteSize::mib(16);
    params.footprint_scale = 64;
    let mut s = System::new(Architecture::FlatSmall, &params);
    let streams = s.spawn_rate_workload("stream", 60_000, 5).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    let r = s.run(streams);
    assert!(r.major_faults > 0, "cell must actually swap to be a test");
}
