//! Criterion microbenchmarks for the simulator's hot paths: one group
//! per subsystem (DRAM timing, SRAM cache, SRRT metadata, remapping
//! policies, OS paging, workload generation, and one end-to-end system
//! benchmark per table/figure family).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chameleon::cpu::InstructionStream;
use chameleon::{Architecture, ScaledParams, System};
use chameleon_cache::{AccessKind, CacheConfig, Hierarchy, SetAssocCache};
use chameleon_core::{policy::HmaPolicy, Flavor, HmaConfig, RemapPolicy, SrrtEntry};
use chameleon_dram::{DramConfig, DramModel, MemOp};
use chameleon_os::isa::NullHook;
use chameleon_os::{BuddyAllocator, MemoryMap, OsConfig, OsKernel};
use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::ClockDomain;
use chameleon_workloads::{AppSpec, AppStream};

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.bench_function("stacked_random_read", |b| {
        let mut m = DramModel::new(DramConfig::stacked_4gb(), ClockDomain::from_ghz(3.6));
        let mut now = 0u64;
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let out = m.access(black_box(addr % (4 << 30)), 64, MemOp::Read, now);
            now = out.done;
            black_box(out.latency)
        });
    });
    g.bench_function("offchip_bulk_2kb", |b| {
        let mut m = DramModel::new(DramConfig::offchip_20gb(), ClockDomain::from_ghz(3.6));
        let mut now = 0u64;
        b.iter(|| {
            let out = m.bulk(black_box(now % (1 << 28)), 2048, MemOp::Read, now);
            now = out.done;
            black_box(out.done)
        });
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("l1_access", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::table1_l1());
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64) % (1 << 20);
            black_box(cache.access(addr, AccessKind::Read))
        });
    });
    g.bench_function("hierarchy_access", |b| {
        let mut h = Hierarchy::table1(4);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(99) % (1 << 26);
            black_box(h.access(0, addr, false).level)
        });
    });
    g.finish();
}

fn bench_srrt(c: &mut Criterion) {
    let mut g = c.benchmark_group("srrt");
    g.bench_function("entry_ops", |b| {
        let mut e = SrrtEntry::new(6);
        let mut i = 0u8;
        b.iter(|| {
            i = (i + 1) % 6;
            e.set_allocated(i, true);
            e.swap_homes(i, (i + 1) % 6);
            black_box(e.note_offchip_access(i, 16))
        });
    });
    g.finish();
}

fn bench_policy(c: &mut Criterion) {
    let mut cfg = HmaConfig::scaled_laptop();
    cfg.stacked.capacity = ByteSize::mib(8);
    cfg.offchip.capacity = ByteSize::mib(40);
    let mut g = c.benchmark_group("policy");
    g.bench_function("pom_demand_access", |b| {
        let mut p = RemapPolicy::new(cfg.clone(), Flavor::Pom);
        let mut now = 0u64;
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_mul(2862933555777941757).wrapping_add(3037) % (48 << 20);
            now += 50;
            black_box(p.access(addr, false, now))
        });
    });
    g.bench_function("chameleon_opt_demand_access", |b| {
        let mut p = RemapPolicy::new(cfg.clone(), Flavor::Chameleon { opt: true });
        let mut now = 0u64;
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_mul(2862933555777941757).wrapping_add(3037) % (48 << 20);
            now += 50;
            black_box(p.access(addr, false, now))
        });
    });
    g.finish();
}

fn bench_os(c: &mut Criterion) {
    let mut g = c.benchmark_group("os");
    g.bench_function("buddy_alloc_free", |b| {
        let mut buddy = BuddyAllocator::new(0, 32 << 20);
        b.iter(|| {
            let a = buddy.alloc(0).expect("space");
            buddy.free(a, 0);
            black_box(a)
        });
    });
    g.bench_function("touch_resident", |b| {
        let mut os = OsKernel::new(
            OsConfig::default(),
            MemoryMap::new(ByteSize::mib(4), ByteSize::mib(32)),
        );
        let pid = os.spawn(ByteSize::mib(16));
        let mut hook = NullHook;
        // Fault the page in once, then measure resident translation.
        os.touch(pid, 0, false, 0, &mut hook).expect("first touch");
        b.iter(|| black_box(os.touch(pid, 0, false, 0, &mut hook).expect("resident")));
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.bench_function("appstream_next_op", |b| {
        let spec = AppSpec::by_name("mcf").expect("app").scaled(64);
        let mut s = AppStream::new(&spec, u64::MAX / 2, 7);
        b.iter(|| black_box(s.next_op()));
    });
    g.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("system");
    g.sample_size(10);
    // One end-to-end cell per major experiment family, so `cargo bench`
    // exercises the exact code paths the figure runners use.
    for (name, arch) in [
        ("fig18_cell_pom", Architecture::Pom),
        ("fig18_cell_chameleon_opt", Architecture::ChameleonOpt),
        ("fig15_cell_alloy", Architecture::Alloy),
        (
            "fig20_cell_autonuma",
            Architecture::AutoNuma { threshold_pct: 90 },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut params = ScaledParams::tiny();
                params.instructions_per_core = 20_000;
                let mut system = System::new(arch, &params);
                let streams = system
                    .spawn_rate_workload("bwaves", params.instructions_per_core, 1)
                    .expect("app");
                system.prefault_all().expect("prefault");
                system.reset_measurement();
                black_box(system.run(streams).run.geomean_ipc())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_dram,
    bench_cache,
    bench_srrt,
    bench_policy,
    bench_os,
    bench_workload,
    bench_system
);
criterion_main!(benches);
