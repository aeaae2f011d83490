//! The rate workloads (`rate-mcf`, `rate-minighost`) and the rate-layer
//! probe.
//!
//! The probe captures one run's input to each layer from outside
//! `System` and replays it through that layer's public API alone: the op
//! streams for decode, the references that miss `System`'s translation
//! memo for `OsKernel::touch`, the translated addresses for `Hierarchy`,
//! and the timestamped LLC-miss and writeback stream for `HmaPolicy` and
//! `DramModel`. Each replay must reproduce the run's own counters before
//! its time is reported.

use std::hint::black_box;
use std::time::{Duration, Instant};

use chameleon::cache::{CacheStats, Hierarchy, HitLevel, PrefetchBuf, WritebackBuf};
use chameleon::core_policies::{HmaDevices, HmaPolicy};
use chameleon::cpu::{InstructionStream, MemorySystem, MultiCore, Op, Reply};
use chameleon::dram::MemOp;
use chameleon::os::{NodeId, OsConfig, OsError, OsKernel, Pid};
use chameleon::workloads::{AppSpec, AppStream};
use chameleon::{Architecture, ScaledParams, System, SystemReport};

use crate::measure::{digest, repeat_for, timer_cost_s, to_json};
use crate::{Args, Ledger};

use chameleon::os::page_table::PAGE_SIZE as PAGE;
/// Slots per core in `System`'s direct-mapped translation memo, which
/// the probe mirrors to find the references that reach `OsKernel::touch`.
/// If the memo changes shape, change this mirror with it.
const MEMO_SLOTS: u64 = 4096;

/// One rate-mode cell: a copy of `app` on every core, prefaulted, then a
/// measured run. Caches start empty; prefaulting touches only the OS and
/// the HMA policy.
#[derive(Clone, Copy)]
pub struct RateCell {
    arch: Architecture,
    app: &'static str,
    /// `ScaledParams::laptop()` (the sweeprunner default) or `tiny()`.
    laptop: bool,
    instructions_per_core: u64,
}

impl RateCell {
    fn params(&self) -> ScaledParams {
        if self.laptop {
            ScaledParams::laptop()
        } else {
            ScaledParams::tiny()
        }
    }
}

/// A rate workload: the cell it measures, and the smaller cell its traced
/// run captures (a full-size miniGhost trace would take ~0.25 GiB).
pub struct RateWorkload {
    measured: RateCell,
    pub traced: RateCell,
}

const fn opt_laptop(app: &'static str, instructions_per_core: u64) -> RateCell {
    RateCell {
        arch: Architecture::ChameleonOpt,
        app,
        laptop: true,
        instructions_per_core,
    }
}

/// `rate-mcf`: the paper's headline cell. Miss-heavy, so translation, the
/// L3, the HMA policy and DRAM all carry load.
pub const MCF: RateWorkload = RateWorkload {
    measured: opt_laptop("mcf", 2_000_000),
    traced: opt_laptop("mcf", 1_000_000),
};

/// `rate-minighost`: 99% L1 hits, so decode, the fused L1 path and the
/// core driver dominate while HMA and DRAM idle. An HMA or DRAM change
/// should not move it.
pub const MINIGHOST: RateWorkload = RateWorkload {
    measured: opt_laptop("miniGhost", 20_000_000),
    traced: opt_laptop("miniGhost", 5_000_000),
};

/// The rate-layer probe the other workloads run: a tiny Chameleon-Opt
/// mcf cell.
pub const PROBE: RateCell = RateCell {
    arch: Architecture::ChameleonOpt,
    app: "mcf",
    laptop: false,
    instructions_per_core: 400_000,
};

/// `System::new` + spawn + `prefault_all` + `reset_measurement`: what
/// every rate run pays before its first measured reference.
fn set_up(cell: &RateCell, params: &ScaledParams, seed: u64) -> (System, Vec<AppStream>) {
    let mut sys = System::new(cell.arch, params);
    let streams = sys
        .spawn_rate_workload(cell.app, cell.instructions_per_core, seed)
        .expect("rate cells name Table II applications");
    sys.prefault_all()
        .expect("rate footprints fit their capacities");
    sys.reset_measurement();
    (sys, streams)
}

struct Untraced {
    setup_s: f64,
    run_s: f64,
    report: SystemReport,
}

fn run_untraced(cell: &RateCell, params: &ScaledParams, seed: u64) -> Untraced {
    let t = Instant::now();
    let (mut sys, streams) = set_up(cell, params, seed);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = sys.run(streams);
    Untraced {
        setup_s,
        run_s: t.elapsed().as_secs_f64(),
        report,
    }
}

/// Measures a rate workload end to end, untraced, round after round.
pub fn measure(w: &RateWorkload, args: &Args, ledger: &mut Ledger) {
    let cell = &w.measured;
    let params = cell.params();
    let mut first = None;
    repeat_for(args.seconds, 3, || {
        let u = run_untraced(cell, &params, args.seed);
        let d = digest(&to_json(&u.report));
        println!(
            "perfbench digest {} seed={} {d:016x} setup_s={:.4} run_s={:.4}",
            args.workload, args.seed, u.setup_s, u.run_s
        );
        let first = *first.get_or_insert(d);
        ledger.check(d == first, || {
            format!(
                "{} seed {}: two runs reported differently",
                args.workload, args.seed
            )
        });
        let refs = u.report.run.total_mem_ops() as f64;
        let instructions = u.report.run.total_instructions() as f64;
        ledger.metric("wall_s", u.setup_s + u.run_s, "s");
        ledger.metric("setup_s", u.setup_s, "s");
        ledger.metric("sim_maccess_per_s", refs / u.run_s / 1e6, "Mref/s");
        ledger.metric("sim_minstr_per_s", instructions / u.run_s / 1e6, "Minstr/s");
        ledger.next_round();
    });
}

/// Times every `next_op` of one stream.
struct TimedStream {
    inner: AppStream,
    calls: u64,
    spent: Duration,
}

impl InstructionStream for TimedStream {
    fn next_op(&mut self) -> Option<Op> {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.spent += t.elapsed();
        self.calls += 1;
        op
    }
}

/// Times every `System::access`.
struct TimedMemory<'a> {
    sys: &'a mut System,
    calls: u64,
    spent: Duration,
}

impl MemorySystem for TimedMemory<'_> {
    fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> Reply {
        let t = Instant::now();
        let reply = self.sys.access(core, addr, write, now);
        self.spent += t.elapsed();
        self.calls += 1;
        reply
    }
}

/// Records every reference and its issue cycle on its way into `System`.
struct Recorder<'a> {
    sys: &'a mut System,
    refs: Vec<u64>,
    nows: Vec<u64>,
}

impl MemorySystem for Recorder<'_> {
    fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> Reply {
        self.refs.push(pack(core, addr, write));
        self.nows.push(now);
        self.sys.access(core, addr, write, now)
    }
}

/// A reference in one word: `addr << 9 | core << 1 | write`.
fn pack(core: usize, addr: u64, write: bool) -> u64 {
    assert!(
        core < 256 && addr < 1 << 55,
        "reference does not fit the packed trace"
    );
    (addr << 9) | ((core as u64) << 1) | u64::from(write)
}

fn unpack(word: u64) -> (usize, u64, bool) {
    (((word >> 1) & 0xff) as usize, word >> 9, word & 1 == 1)
}

/// The kernel and policy `System::new` builds for `arch`, rebuilt from
/// their public parts.
pub fn twin_kernel(arch: Architecture, params: &ScaledParams) -> (OsKernel, Box<dyn HmaPolicy>) {
    assert!(
        !params.group_aware_placement,
        "the twin kernel does not mirror group-aware placement"
    );
    let cfg = OsConfig {
        visibility: arch.visibility(),
        preference: arch.preference(),
        ..OsConfig::default()
    };
    (
        OsKernel::new(cfg, arch.memory_map(&params.hma)),
        arch.build_policy(&params.hma),
    )
}

/// A twin kernel and policy with the cell's processes spawned and
/// prefaulted as `System::prefault_all` does, then reset as
/// `System::reset_measurement` does.
struct Twin {
    os: OsKernel,
    policy: Box<dyn HmaPolicy>,
    pids: Vec<Pid>,
    pages: u64,
    prefault_s: f64,
    isa_allocs: u64,
}

fn prefaulted_twin(cell: &RateCell, params: &ScaledParams) -> Twin {
    let (mut os, mut policy) = twin_kernel(cell.arch, params);
    let spec = AppSpec::parse(cell.app)
        .expect("rate cells name Table II applications")
        .scaled(params.footprint_scale);
    let t = Instant::now();
    let pids: Vec<Pid> = (0..params.cores)
        .map(|_| os.spawn(spec.per_copy_footprint()))
        .collect();
    let mut pages = 0;
    for &pid in &pids {
        let mut vaddr = 0;
        loop {
            match os.touch(pid, vaddr, true, 0, policy.as_mut()) {
                Ok(_) => pages += 1,
                Err(OsError::OutOfRange(_)) => break,
                Err(e) => panic!("prefaulting the twin kernel failed: {e}"),
            }
            vaddr += PAGE;
        }
    }
    let prefault_s = t.elapsed().as_secs_f64();
    let isa_allocs = policy.stats().isa_allocs.value();
    policy.settle();
    policy.reset_stats();
    os.reset_stats();
    Twin {
        os,
        policy,
        pids,
        pages,
        prefault_s,
        isa_allocs,
    }
}

/// L1 and L2 summed over cores, and the shared L3.
fn levels(h: &Hierarchy, cores: usize) -> [CacheStats; 3] {
    let mut l1 = CacheStats::default();
    let mut l2 = CacheStats::default();
    for core in 0..cores {
        l1.merge(h.l1(core).stats());
        l2.merge(h.l2(core).stats());
    }
    [l1, l2, h.l3().stats().clone()]
}

/// Runs `cell` traced and replays each layer's captured input through
/// that layer alone, reporting every rate-layer metric.
pub fn probe(cell: &RateCell, seed: u64, ledger: &mut Ledger) {
    let params = cell.params();
    assert!(
        params.prefetcher.is_none()
            && cell.arch.autonuma().is_none()
            && cell.arch.guidance().is_none(),
        "the replays mirror System's spine without prefetcher, AutoNUMA or guidance"
    );
    let label = format!("{} {}", cell.arch.label(), cell.app);

    // Untraced reference run of the same cell.
    let base = run_untraced(cell, &params, seed);
    let base_json = to_json(&base.report);
    let refs = base.report.run.total_mem_ops();
    let per_ref = |secs: f64| secs * 1e9 / refs.max(1) as f64;

    // Spans around `next_op` and `System::access` under `MultiCore::run`,
    // then `System::finalize` and the report's serialisation.
    let timer = timer_cost_s();
    let (mut sys, streams) = set_up(cell, &params, seed);
    let mut streams: Vec<TimedStream> = streams
        .into_iter()
        .map(|inner| TimedStream {
            inner,
            calls: 0,
            spent: Duration::ZERO,
        })
        .collect();
    let mut mem = TimedMemory {
        sys: &mut sys,
        calls: 0,
        spent: Duration::ZERO,
    };
    let t = Instant::now();
    let run = MultiCore::new(params.cores, params.core)
        .run(streams.iter_mut().collect::<Vec<_>>(), &mut mem);
    let run_s = t.elapsed().as_secs_f64();
    let (access_calls, access_s) = (mem.calls, mem.spent.as_secs_f64());
    let t = Instant::now();
    let report = sys.finalize(run);
    let finalize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = to_json(&report);
    let json_s = t.elapsed().as_secs_f64();
    ledger.check(json == base_json, || {
        format!("{label}: traced report differs from System::run's")
    });
    let next_calls: u64 = streams.iter().map(|s| s.calls).sum();
    let next_s: f64 = streams.iter().map(|s| s.spent.as_secs_f64()).sum();
    let access_self_s = access_s - timer * access_calls as f64;
    let driver_self_s = run_s - next_s - access_s - timer * (next_calls + access_calls) as f64;
    drop(sys);

    // Record the references themselves in a second, untimed pass.
    let (mut sys, streams) = set_up(cell, &params, seed);
    let generation = sys.os().mapping_generation();
    let mut rec = Recorder {
        sys: &mut sys,
        refs: Vec::with_capacity(refs as usize),
        nows: Vec::with_capacity(refs as usize),
    };
    let run = MultiCore::new(params.cores, params.core).run(streams, &mut rec);
    let Recorder {
        refs: mut trace,
        nows,
        ..
    } = rec;
    let report = sys.finalize(run);
    ledger.check(to_json(&report) == base_json, || {
        format!("{label}: recorded report differs from System::run's")
    });
    // Translations are read back from the final page tables, which only
    // describe the run if it mapped and retired nothing.
    let stable = sys.os().mapping_generation() == generation
        && report.minor_faults == 0
        && report.major_faults == 0;
    ledger.check(stable, || {
        format!("{label}: the run changed its page tables")
    });
    if !stable {
        return;
    }

    // Mirror the memo: its misses are the references that reach
    // `OsKernel::touch`. Rate-mode pids are spawned 1..=cores in core
    // order.
    let mut tags = vec![u64::MAX; params.cores * MEMO_SLOTS as usize];
    let mut frames = vec![0; tags.len()];
    let mut touches = Vec::new(); // (packed vaddr, issue cycle, paddr the run used)
    let mut translated = true;
    for (word, &now) in trace.iter_mut().zip(&nows) {
        let (core, vaddr, write) = unpack(*word);
        let vpn = vaddr / PAGE;
        let slot = core * MEMO_SLOTS as usize + (vpn % MEMO_SLOTS) as usize;
        if tags[slot] != vpn {
            let Some(frame) = sys.os().peek_translate(Pid(core as u32 + 1), vpn * PAGE) else {
                translated = false;
                break;
            };
            tags[slot] = vpn;
            frames[slot] = frame;
            touches.push((*word, now, frame + vaddr % PAGE));
        }
        *word = pack(core, frames[slot] + vaddr % PAGE, write);
    }
    ledger.check(translated, || {
        format!("{label}: a reference has no resident translation")
    });
    if !translated {
        return;
    }

    // os: the memo misses through an identically prefaulted kernel.
    let mut twin = prefaulted_twin(cell, &params);
    let mut same = true;
    let t = Instant::now();
    for &(word, now, paddr) in &touches {
        let (core, vaddr, write) = unpack(word);
        let out = twin.os.touch(
            Pid(core as u32 + 1),
            vaddr,
            write,
            now,
            twin.policy.as_mut(),
        );
        same &= matches!(out, Ok(o) if o.paddr == paddr && o.fault.is_none());
    }
    let touch_s = t.elapsed().as_secs_f64();
    ledger.check(same, || {
        format!("{label}: OsKernel::touch replay translated differently from the run")
    });

    // cache: the translated trace through an identical hierarchy.
    let hierarchy = || {
        Hierarchy::new(
            params.cores,
            params.l1.clone(),
            params.l2.clone(),
            params.l3.clone(),
        )
    };
    let (mut wbs, mut pfs) = (WritebackBuf::new(), PrefetchBuf::new());
    let mut h = hierarchy();
    let mut fast = 0u64;
    let t = Instant::now();
    for &word in &trace {
        let (core, paddr, write) = unpack(word);
        if h.fast_access(core, paddr, write).is_some() {
            fast += 1;
        } else {
            black_box(h.access_into(core, paddr, write, &mut wbs, &mut pfs));
        }
    }
    let walk_s = t.elapsed().as_secs_f64();
    let [l1, _, l3] = levels(&h, params.cores);
    let replayed = levels(&h, params.cores).map(|s| to_json(&s));
    let ran = levels(sys.hierarchy(), params.cores).map(|s| to_json(&s));
    ledger.check(replayed == ran, || {
        format!("{label}: cache replay's L1/L2/L3 counters differ from the run's")
    });

    // The LLC misses and writebacks, in the order System issues them:
    // the demand access, then the walk's dirty victims, all at the issue
    // cycle `now + SRAM latency`.
    let mut h = hierarchy();
    let mut events: Vec<(u64, u64)> = Vec::new(); // (paddr << 2 | writeback << 1 | write, issue)
    for (&word, &now) in trace.iter().zip(&nows) {
        let (core, paddr, write) = unpack(word);
        if h.fast_access(core, paddr, write).is_some() {
            continue;
        }
        let (level, latency) = h.access_into(core, paddr, write, &mut wbs, &mut pfs);
        let issue = now + u64::from(latency);
        if level == HitLevel::Memory {
            events.push(((paddr << 2) | u64::from(write), issue));
        }
        events.extend(wbs.iter().map(|&wb| ((wb << 2) | 2, issue)));
    }
    drop((trace, nows));
    let misses = events.iter().filter(|e| e.0 & 2 == 0).count() as u64;

    // core: the miss stream through the prefaulted twin policy.
    let t = Instant::now();
    for &(word, issue) in &events {
        if word & 2 == 0 {
            black_box(twin.policy.access(word >> 2, word & 1 == 1, issue));
        } else {
            twin.policy.writeback(word >> 2, issue);
        }
    }
    let hma_s = t.elapsed().as_secs_f64();
    let (ran, replayed) = (sys.policy(), twin.policy.as_ref());
    ledger.check(to_json(replayed.stats()) == to_json(ran.stats()), || {
        format!("{label}: HmaPolicy replay's hma.* counters differ from the run's")
    });
    let device_json = |p: &dyn HmaPolicy| {
        let d = p.devices();
        (to_json(d.stacked.stats()), to_json(d.offchip.stats()))
    };
    ledger.check(device_json(replayed) == device_json(ran), || {
        format!("{label}: HmaPolicy replay's DRAM requests differ from the run's")
    });
    let hma = replayed.stats();
    let (stacked_hit_ratio, swaps) = (hma.stacked_hit_rate(), hma.swaps.value());
    let cache_fraction = replayed.mode_distribution().cache_fraction();

    // dram: the same miss stream straight into fresh devices, routed by
    // the physical memory map.
    let mut devices = HmaDevices::new(&params.hma);
    let map = cell.arch.memory_map(&params.hma);
    let t = Instant::now();
    for &(word, issue) in &events {
        let paddr = word >> 2;
        let node = map.node_of(paddr);
        let device = match node {
            NodeId::Stacked => &mut devices.stacked,
            NodeId::Offchip => &mut devices.offchip,
        };
        let op = if word & 2 == 0 {
            MemOp::Read
        } else {
            MemOp::Write
        };
        black_box(device.access(paddr - map.base(node), 64, op, issue));
    }
    let dram_s = t.elapsed().as_secs_f64();
    let dram = [devices.stacked.stats(), devices.offchip.stats()];
    let requests: u64 = dram
        .iter()
        .map(|s| s.reads.value() + s.writes.value())
        .sum();
    let row_hits: u64 = dram.iter().map(|s| s.row_hits.value()).sum();
    ledger.check(requests == events.len() as u64, || {
        format!(
            "{label}: DRAM replay serviced {requests} of {} requests",
            events.len()
        )
    });

    // os: process exit frees every frame (ISA-Free).
    let t = Instant::now();
    for &pid in &twin.pids {
        twin.os
            .exit(pid, 0, twin.policy.as_mut())
            .expect("twin processes are live");
    }
    let exit_s = t.elapsed().as_secs_f64();
    let isa_frees = twin.policy.stats().isa_frees.value();

    // workloads: the same streams drained with no memory system.
    let spec = AppSpec::parse(cell.app)
        .expect("rate cells name Table II applications")
        .scaled(params.footprint_scale);
    // `System::spawn_rate_workload`'s per-core seeds; the count check
    // catches a drift.
    let mut streams: Vec<AppStream> = (0..params.cores as u64)
        .map(|core| {
            let seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(core);
            AppStream::new(&spec, cell.instructions_per_core, seed)
        })
        .collect();
    let mut decoded = 0u64;
    let t = Instant::now();
    for s in &mut streams {
        while let Some(op) = s.next_op() {
            decoded += u64::from(!matches!(black_box(op), Op::Compute(_)));
        }
    }
    let decode_s = t.elapsed().as_secs_f64();
    ledger.check(decoded == refs, || {
        format!("{label}: drained {decoded} references, the run issued {refs}")
    });

    let n = refs.max(1) as f64;
    let touch_calls = touches.len().max(1) as f64;
    ledger.metric("workloads.decode_ns_per_ref", per_ref(decode_s), "ns");
    ledger.metric("cpu.driver_self_ns_per_ref", per_ref(driver_self_s), "ns");
    ledger.metric("cpu.access_ns_per_ref", per_ref(access_self_s), "ns");
    ledger.metric(
        "os.touch_calls_per_kref",
        touches.len() as f64 * 1e3 / n,
        "count",
    );
    ledger.metric("os.touch_ns_per_call", touch_s * 1e9 / touch_calls, "ns");
    ledger.metric(
        "os.alloc_free_ns_per_page",
        (twin.prefault_s + exit_s) * 1e9 / twin.pages.max(1) as f64,
        "ns",
    );
    ledger.metric("os.isa_allocs", twin.isa_allocs as f64, "count");
    ledger.metric("os.isa_frees", isa_frees as f64, "count");
    ledger.metric("cache.walk_ns_per_ref", per_ref(walk_s), "ns");
    ledger.metric("cache.fast_path_ratio", fast as f64 / n, "ratio");
    ledger.metric(
        "cache.l1_hit_ratio",
        l1.hits.value() as f64 / l1.accesses().max(1) as f64,
        "ratio",
    );
    ledger.metric(
        "cache.llc_misses_per_kref",
        l3.misses.value() as f64 * 1e3 / n,
        "count",
    );
    ledger.metric(
        "core.hma_ns_per_miss",
        hma_s * 1e9 / misses.max(1) as f64,
        "ns",
    );
    ledger.metric("core.stacked_hit_ratio", stacked_hit_ratio, "ratio");
    ledger.metric(
        "core.swaps_per_kmiss",
        swaps as f64 * 1e3 / misses.max(1) as f64,
        "count",
    );
    ledger.metric("core.mode_cache_fraction", cache_fraction, "ratio");
    ledger.metric(
        "dram.ns_per_request",
        dram_s * 1e9 / requests.max(1) as f64,
        "ns",
    );
    ledger.metric(
        "dram.row_hit_ratio",
        row_hits as f64 / requests.max(1) as f64,
        "ratio",
    );
    ledger.metric("simkit.finalize_ms", finalize_s * 1e3, "ms");
    ledger.metric("simkit.report_json_ms", json_s * 1e3, "ms");
    // DRAM time is inside the HMA replay, so it is not added again.
    let layers = decode_s + driver_self_s + touch_s + walk_s + hma_s;
    ledger.metric(
        "unattributed_ns_per_ref",
        per_ref(base.run_s - layers),
        "ns",
    );
    ledger.metric("trace.overhead_ratio", run_s / base.run_s, "ratio");
}
