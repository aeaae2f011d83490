//! `tenant-churn` and the churn probe: scenario presets through
//! `run_scenario`, and every job's spawn → first-touch → exit sequence
//! replayed through `OsKernel` with the scheme's policy as `IsaHook`.

use std::collections::HashSet;
use std::time::Instant;

use chameleon::cpu::{InstructionStream, Op};
use chameleon::simkit::mem::ByteSize;
use chameleon::workloads::{AppSpec, AppStream, LoopConfig, LoopStream, ZipfConfig, ZipfStream};
use chameleon::{Architecture, ScaledParams, System};
use chameleon_scenarios::{
    generate_jobs, run_scenario, JobCell, ScenarioReport, ScenarioSpec, WorkloadKind,
};

use crate::measure::{digest, repeat_for, to_json};
use crate::rate::twin_kernel;
use crate::{Args, Ledger};

use chameleon::os::page_table::PAGE_SIZE as PAGE;
/// Store fractions `run_scenario` gives synthetic tenants. They steer the
/// streams' RNG, so the replay must use the same values; its minor-fault
/// check catches a drift.
const ZIPF_WRITE_FRACTION: f64 = 0.3;
const SCAN_WRITE_FRACTION: f64 = 0.1;
/// System constructions per architecture and round behind `setup_s`.
const SETUP_REPS: u32 = 20;

/// Scenario runs: one per architecture and consecutive seed, all at
/// `ScaledParams::tiny()` (scenariorunner's default).
pub struct Churn {
    spec: fn() -> ScenarioSpec,
    archs: &'static [Architecture],
    seeds: u64,
}

/// `tenant-churn`: the `medium` preset on both Chameleon variants, three
/// seeds back to back. Its ISA-Alloc/ISA-Free churn drives PoM↔cache
/// mode changes at run time.
pub const CHURN: Churn = Churn {
    spec: ScenarioSpec::medium,
    archs: &[Architecture::Chameleon, Architecture::ChameleonOpt],
    seeds: 3,
};

/// The churn probe the other workloads run: the `small` preset once.
pub const PROBE: Churn = Churn {
    spec: ScenarioSpec::small,
    archs: &[Architecture::ChameleonOpt],
    seeds: 1,
};

impl Churn {
    fn runs(&self, seed: u64) -> impl Iterator<Item = (Architecture, u64)> + '_ {
        self.archs
            .iter()
            .flat_map(move |&arch| (0..self.seeds).map(move |i| (arch, seed.wrapping_add(i))))
    }
}

/// Measures `tenant-churn` end to end, untraced, round after round.
pub fn measure(args: &Args, ledger: &mut Ledger) {
    let params = ScaledParams::tiny();
    let spec = (CHURN.spec)();
    let mut first: Option<Vec<u64>> = None;
    repeat_for(args.seconds, 3, || {
        let start = Instant::now();
        // Tiny-scale set-up takes well under a millisecond, so each round
        // averages several constructions of both variants.
        let mut setup_s = 0.0;
        for _ in 0..SETUP_REPS {
            for &arch in CHURN.archs {
                let t = Instant::now();
                let sys = System::new(arch, &params);
                setup_s += t.elapsed().as_secs_f64();
                drop(sys);
            }
        }
        setup_s /= f64::from(SETUP_REPS);
        let t = Instant::now();
        let reports: Vec<ScenarioReport> = CHURN
            .runs(args.seed)
            .map(|(arch, seed)| run_scenario(arch, &params, &spec, seed))
            .collect();
        let run_s = t.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();
        let (mut refs, mut instructions) = (0, 0);
        for r in &reports {
            ledger.check(r.jobs.len() == spec.total_jobs(), || {
                format!(
                    "{} seed {}: {} of {} jobs ran",
                    r.arch,
                    r.seed,
                    r.jobs.len(),
                    spec.total_jobs()
                )
            });
            // Every reference looks up the L1 once, fast path included.
            let counter = |name: &str| r.system.metrics.counters.get(name).copied().unwrap_or(0);
            refs += counter("cache.l1.reads") + counter("cache.l1.writes");
            instructions += generate_jobs(&spec, r.seed)
                .iter()
                .map(|j| j.instructions)
                .sum::<u64>();
        }
        let digests: Vec<u64> = reports.iter().map(|r| digest(&to_json(r))).collect();
        println!(
            "perfbench digest tenant-churn seed={} {:016x}",
            args.seed,
            digest(&format!("{digests:?}"))
        );
        let first = first.get_or_insert_with(|| digests.clone());
        ledger.check(*first == digests, || {
            format!(
                "tenant-churn seed {}: two runs reported differently",
                args.seed
            )
        });
        ledger.metric("wall_s", wall_s, "s");
        ledger.metric("setup_s", setup_s, "s");
        ledger.metric("sim_maccess_per_s", refs as f64 / run_s / 1e6, "Mref/s");
        ledger.metric(
            "sim_minstr_per_s",
            instructions as f64 / run_s / 1e6,
            "Minstr/s",
        );
        ledger.next_round();
    });
}

/// Times every scenario run per job, then replays each run's jobs through
/// a twin kernel: spawn, first touch of every page the job's stream
/// touches, exit. The replay must fault in exactly the pages the run did.
pub fn probe(churn: &Churn, seed: u64, ledger: &mut Ledger) {
    let params = ScaledParams::tiny();
    let spec = (churn.spec)();
    let (mut run_s, mut replay_s) = (0.0, 0.0);
    let (mut jobs, mut pages, mut allocs, mut frees, mut runs) = (0, 0, 0, 0, 0);
    for (arch, seed) in churn.runs(seed) {
        let t = Instant::now();
        let report = run_scenario(arch, &params, &spec, seed);
        run_s += t.elapsed().as_secs_f64();
        jobs += report.jobs.len();
        let plans: Vec<(ByteSize, Vec<u64>)> = generate_jobs(&spec, seed)
            .iter()
            .map(|cell| first_touches(cell, &params))
            .collect();
        let (mut os, mut policy) = twin_kernel(arch, &params);
        let mut ok = true;
        let t = Instant::now();
        for (footprint, vpns) in &plans {
            let pid = os.spawn(*footprint);
            for &vpn in vpns {
                ok &= os.touch(pid, vpn * PAGE, false, 0, policy.as_mut()).is_ok();
            }
            ok &= os.exit(pid, 0, policy.as_mut()).is_ok();
        }
        replay_s += t.elapsed().as_secs_f64();
        let touched: u64 = plans.iter().map(|(_, v)| v.len() as u64).sum();
        let faulted = report.system.minor_faults;
        ledger.check(
            ok && touched == faulted && report.system.major_faults == 0,
            || {
                format!(
                    "{} seed {seed}: the replay first-touched {touched} pages, the run faulted in {faulted}",
                    arch.label()
                )
            },
        );
        pages += touched;
        allocs += policy.stats().isa_allocs.value();
        frees += policy.stats().isa_frees.value();
        runs += 1;
    }
    let runs = f64::from(runs);
    ledger.metric(
        "scenarios.host_us_per_job",
        run_s * 1e6 / jobs.max(1) as f64,
        "us",
    );
    ledger.metric(
        "os.alloc_free_ns_per_page",
        replay_s * 1e9 / pages.max(1) as f64,
        "ns",
    );
    ledger.metric("os.isa_allocs", allocs as f64 / runs, "count");
    ledger.metric("os.isa_frees", frees as f64 / runs, "count");
}

/// A job's footprint and the pages its stream touches in first-touch
/// order: the stream `run_scenario` admits for the job, drained.
fn first_touches(cell: &JobCell, params: &ScaledParams) -> (ByteSize, Vec<u64>) {
    let (footprint, mut stream): (ByteSize, Box<dyn InstructionStream>) = match &cell.workload {
        WorkloadKind::App { name } => {
            let spec = AppSpec::parse(name)
                .expect("scenario presets name Table II applications")
                .scaled(params.footprint_scale);
            let stream = AppStream::new(&spec, cell.instructions, cell.seed);
            (spec.per_copy_footprint(), Box::new(stream))
        }
        WorkloadKind::Zipf { skew } => {
            let cfg = ZipfConfig {
                footprint: cell.footprint,
                skew: *skew,
                mem_per_kilo: cell.mem_per_kilo,
                write_fraction: ZIPF_WRITE_FRACTION,
            };
            (
                cell.footprint,
                Box::new(ZipfStream::new(&cfg, cell.instructions, cell.seed)),
            )
        }
        WorkloadKind::Scan { stride_lines } => {
            let cfg = LoopConfig {
                footprint: cell.footprint,
                stride_lines: *stride_lines,
                mem_per_kilo: cell.mem_per_kilo,
                write_fraction: SCAN_WRITE_FRACTION,
            };
            (
                cell.footprint,
                Box::new(LoopStream::new(&cfg, cell.instructions, cell.seed)),
            )
        }
    };
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    while let Some(op) = stream.next_op() {
        if let Op::Load(addr) | Op::Store(addr) = op {
            if seen.insert(addr / PAGE) {
                order.push(addr / PAGE);
            }
        }
    }
    (footprint, order)
}
