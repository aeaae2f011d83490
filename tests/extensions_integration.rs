//! Integration tests for the features beyond the paper's core evaluation:
//! the §VI-G placement ledger, the buffer cache (§V-D3), the stride
//! prefetcher, trace replay and the energy counters.

use chameleon::cpu::MultiCore;
use chameleon::dram::{EnergyParams, MemOp};
use chameleon::os::buffer_cache::BufferCache;
use chameleon::os::isa::RecordingHook;
use chameleon::os::{MemoryMap, OsConfig, OsKernel};
use chameleon::simkit::mem::ByteSize;
use chameleon::workloads::trace::{record, Trace};
use chameleon::workloads::{AppSpec, AppStream};
use chameleon::{Architecture, ScaledParams, System};

#[test]
fn group_aware_placement_flows_through_the_facade() {
    let mut params = ScaledParams::tiny();
    params.group_aware_placement = true;
    let mut s = System::new(Architecture::ChameleonOpt, &params);
    let streams = s.spawn_rate_workload("bwaves", 20_000, 1).unwrap();
    s.prefault_all().unwrap();
    assert!(
        s.os().ledger().is_some(),
        "ledger active when the flag is set and both nodes visible"
    );
    let capable = s.os().ledger().unwrap().cache_capable_fraction();
    let actual = s.policy().mode_distribution().cache_fraction();
    assert!(
        actual <= capable + 1e-9,
        "hardware cache coverage ({actual}) bounded by ledger capability ({capable})"
    );
    s.reset_measurement();
    let r = s.run(streams);
    assert!(r.run.geomean_ipc() > 0.0);
}

#[test]
fn ledger_disabled_for_cache_architectures() {
    let mut params = ScaledParams::tiny();
    params.group_aware_placement = true;
    let s = System::new(Architecture::Alloy, &params);
    assert!(
        s.os().ledger().is_none(),
        "no stacked allocations to place under OffchipOnly visibility"
    );
}

#[test]
fn buffer_cache_allocations_reach_the_hardware() {
    // Section V-D3: buffer-cache pages flow through ISA-Alloc/ISA-Free
    // like any other allocation.
    let mut os = OsKernel::new(
        OsConfig::default(),
        MemoryMap::new(ByteSize::mib(2), ByteSize::mib(8)),
    );
    let mut bc = BufferCache::new(&mut os, 1 << 20);
    let mut hook = RecordingHook::default();
    for p in 0..32 {
        bc.read_file_page(&mut os, p, 0, &mut hook).unwrap();
    }
    assert_eq!(hook.allocs.len(), 32);
    let free_before = os.total_free_bytes();
    bc.shrink(&mut os, 32, 0, &mut hook).unwrap();
    assert_eq!(hook.frees.len(), 32);
    assert_eq!(os.total_free_bytes(), free_before + 32 * 4096);
}

#[test]
fn trace_replay_reproduces_generated_run_exactly() {
    let params = {
        let mut p = ScaledParams::tiny();
        p.instructions_per_core = 20_000;
        p
    };
    let spec = AppSpec::by_name("hpccg")
        .unwrap()
        .scaled(params.footprint_scale);

    let run_generated = {
        let mut s = System::new(Architecture::Pom, &params);
        let streams = s.spawn_rate_workload_spec(&spec, params.instructions_per_core, 9);
        s.prefault_all().unwrap();
        s.reset_measurement();
        s.run(streams).run.makespan()
    };

    let run_replayed = {
        let traces: Vec<Trace> = (0..params.cores)
            .map(|core| {
                let mut stream = AppStream::new(
                    &spec,
                    params.instructions_per_core,
                    9u64.wrapping_mul(0x9E37_79B9).wrapping_add(core as u64),
                );
                let mut buf = std::io::Cursor::new(Vec::new());
                record(&mut stream, &mut buf).unwrap();
                Trace::read(&buf.into_inner()[..]).unwrap()
            })
            .collect();
        let mut s = System::new(Architecture::Pom, &params);
        let _ = s.spawn_rate_workload_spec(&spec, 0, 9);
        s.prefault_all().unwrap();
        s.reset_measurement();
        let mut cores = MultiCore::new(params.cores, params.core);
        cores
            .run(traces.iter().map(|t| t.replay()).collect(), &mut s)
            .makespan()
    };

    assert_eq!(run_generated, run_replayed, "replay is cycle-exact");
}

#[test]
fn energy_counters_accumulate_during_runs() {
    let params = ScaledParams::tiny();
    let mut s = System::new(Architecture::Pom, &params);
    let streams = s.spawn_rate_workload("stream", 40_000, 4).unwrap();
    s.prefault_all().unwrap();
    s.reset_measurement();
    let _ = s.run(streams);
    let d = s.policy().devices();
    let stacked = d
        .stacked
        .energy()
        .dynamic_energy_mj(&EnergyParams::stacked());
    let offchip = d
        .offchip
        .energy()
        .dynamic_energy_mj(&EnergyParams::offchip());
    assert!(stacked > 0.0, "stacked device did work");
    assert!(offchip > 0.0, "off-chip device did work");
}

#[test]
fn command_scheduler_matches_device_row_behaviour() {
    use chameleon::dram::sched::{ChannelScheduler, SchedConfig};
    use chameleon::dram::{DramConfig, DramModel};
    use chameleon::simkit::ClockDomain;

    // Same two accesses to one row: both models classify the second as a
    // row hit.
    let cpu = ClockDomain::from_ghz(3.6);
    let mut sched =
        ChannelScheduler::new(SchedConfig::from_device(&DramConfig::stacked_4gb(), cpu));
    sched.enqueue_read(0, 7, 0);
    sched.enqueue_read(0, 7, 0);
    let done = sched.run_until_idle();
    assert!(!done[0].row_hit);
    assert!(done[1].row_hit);

    let mut model = DramModel::new(DramConfig::stacked_4gb(), cpu);
    let a = model.access(7 * 4096 * 16, 64, MemOp::Read, 0);
    let b = model.access(7 * 4096 * 16 + 64, 64, MemOp::Read, a.done);
    assert!(!a.row_hit);
    assert!(b.row_hit);
}
