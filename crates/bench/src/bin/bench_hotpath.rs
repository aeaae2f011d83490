//! Hot-path throughput rig: simulated memory references per wall-clock
//! second, per architecture, on a fixed workload.
//!
//! Every simulated reference walks `System::access` → `OsKernel::touch` →
//! `Hierarchy::access_into` → `HmaPolicy::access`; this runner measures how
//! fast that walk goes on the host, independent of what it simulates.
//! The output seeds the perf trajectory: `BENCH_hotpath.json` records
//! accesses/sec and ns/access for a `fig15`-style cell of each
//! architecture, so any hot-path regression shows up as a number, not a
//! feeling.
//!
//! The workload is fixed (mcf, base seed 1, tiny-scale capacities) so
//! runs on the same machine are comparable across commits. Wall-clock
//! timing covers only the measured run, not spawn/prefault/warm-up.
//!
//! Beyond the per-cell numbers, the report carries a stage
//! decomposition of the Chameleon-Opt cell (decode drain /
//! hierarchy-walk replay / residual translate+glue, see
//! [`StageBreakdown`]) and the host's CPU count, so every committed
//! number names the machine shape it was measured on.
//!
//! Usage: `bench_hotpath [--instr N] [--reps N] [--out PATH] [--check PATH]`
//!   --instr N    instructions per core for the measured run
//!                (default 2,000,000; CI smoke passes a smaller N)
//!   --reps N     measured repetitions per cell; the fastest is reported
//!                (default 3 — best-of filters scheduler noise, which is
//!                one-sided: interference only ever slows a run down)
//!   --out PATH   output JSON path (default BENCH_hotpath.json)
//!   --check PATH instead of writing a report, measure the Chameleon-Opt
//!                cell and fail (exit 1) if its ns/access regressed more
//!                than 25% against the committed report at PATH — the
//!                CI drift gate

use std::time::Instant;

use chameleon::cache::{Hierarchy, PrefetchBuf, WritebackBuf};
use chameleon::{Architecture, ScaledParams, System};
use chameleon_cpu::{InstructionStream, Op};
use serde::{Deserialize, Serialize};

/// Fraction by which a fresh `--check` measurement may exceed the
/// committed ns/access before the gate fails.
const DRIFT_TOLERANCE: f64 = 0.25;

/// One architecture's hot-path throughput measurement.
#[derive(Debug, Serialize, Deserialize)]
struct HotpathCell {
    /// Architecture label (paper legend spelling).
    arch: String,
    /// Workload name.
    app: String,
    /// Simulated memory references the measured run issued.
    accesses: u64,
    /// Instructions retired across cores.
    instructions: u64,
    /// Wall-clock nanoseconds for the measured run.
    elapsed_ns: u64,
    /// Host throughput: simulated references per wall-clock second.
    accesses_per_sec: f64,
    /// Host cost: wall-clock nanoseconds per simulated reference.
    ns_per_access: f64,
}

/// Where the hot path spends its time, measured on the Chameleon-Opt
/// cell: the decode stage is a pure stream drain,
/// the walk stage replays the decoded reference trace through
/// `Hierarchy::access_into`, the one walk `System::access` makes per
/// reference, and the translate/glue stage is the exact
/// residual (total − decode − walk) — translation + memo + HMA policy +
/// core/driver scheduling. Stages are each best-of-`reps` like the
/// cells, so decode + walk + translate_glue reconstructs the committed
/// total by construction.
#[derive(Debug, Serialize, Deserialize)]
struct StageBreakdown {
    /// Pure workload decode: draining the cell's instruction streams
    /// with no memory system attached, ns per memory reference.
    decode_ns_per_access: f64,
    /// SRAM hierarchy walk: replaying the decoded (core, addr, write)
    /// trace through `access_into` on an identical hierarchy, ns per
    /// reference.
    walk_ns_per_access: f64,
    /// Residual host cost per reference: translation + memo + policy +
    /// core/driver glue (`total − decode − walk`, clamped at zero).
    translate_glue_ns_per_access: f64,
    /// The Chameleon-Opt cell total the stages decompose.
    total_ns_per_access: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct HotpathReport {
    /// Report shape version (v4: one cell per architecture plus
    /// `host_cpus`).
    schema_version: u32,
    /// Logical CPUs the measuring host exposed.
    host_cpus: usize,
    /// Instructions per core each cell ran.
    instructions_per_core: u64,
    /// Fixed workload every cell runs.
    app: String,
    /// Per-architecture measurements.
    cells: Vec<HotpathCell>,
    /// Hot-path cost decomposition (Chameleon-Opt cell).
    stages: StageBreakdown,
}

/// The committed report's shape version; `--check` and the bench-crate
/// schema test both pin it.
const HOTPATH_SCHEMA_VERSION: u32 = 4;

fn build_cell(arch: Architecture, instructions_per_core: u64) -> System {
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = instructions_per_core;
    System::new(arch, &params)
}

fn measure_once(arch: Architecture, instructions_per_core: u64) -> HotpathCell {
    let mut system = build_cell(arch, instructions_per_core);
    let streams = system
        .spawn_rate_workload("mcf", instructions_per_core, 1)
        .expect("mcf is a Table II app");
    system.prefault_all().expect("prefault");
    system.reset_measurement();
    let started = Instant::now();
    let report = system.run(streams);
    let elapsed = started.elapsed();
    let accesses: u64 = report.run.cores.iter().map(|c| c.mem_ops).sum();
    let instructions = report.run.total_instructions();
    let elapsed_ns = elapsed.as_nanos() as u64;
    let secs = elapsed.as_secs_f64().max(1e-12);
    HotpathCell {
        arch: report.arch,
        app: report.workload,
        accesses,
        instructions,
        elapsed_ns,
        accesses_per_sec: accesses as f64 / secs,
        ns_per_access: elapsed_ns as f64 / accesses.max(1) as f64,
    }
}

/// Best of `reps` runs: each repetition simulates the identical cell, so
/// the fastest wall-clock time is the cleanest estimate of the hot
/// path's cost.
fn measure(arch: Architecture, instructions_per_core: u64, reps: u32) -> HotpathCell {
    (0..reps.max(1))
        .map(|_| measure_once(arch, instructions_per_core))
        .min_by(|a, b| a.elapsed_ns.cmp(&b.elapsed_ns))
        .expect("at least one repetition")
}

/// Spawns the fixed cell workload the way every measured cell does.
fn spawn_streams(
    system: &mut System,
    instructions_per_core: u64,
) -> Vec<chameleon::workloads::AppStream> {
    system
        .spawn_rate_workload("mcf", instructions_per_core, 1)
        .expect("mcf is a Table II app")
}

/// Stage probe 1 — decode: drains the cell's streams with no memory
/// system attached. Returns (best ns/reference, reference count).
fn measure_decode(instructions_per_core: u64, reps: u32) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut refs = 0u64;
    for _ in 0..reps.max(1) {
        let mut system = build_cell(Architecture::ChameleonOpt, instructions_per_core);
        let mut streams = spawn_streams(&mut system, instructions_per_core);
        let mut mem = 0u64;
        let mut sink = 0u64;
        let started = Instant::now();
        for s in &mut streams {
            while let Some(op) = s.next_op() {
                if let Op::Load(a) | Op::Store(a) = op {
                    mem += 1;
                    sink = sink.wrapping_add(a);
                }
            }
        }
        let ns = started.elapsed().as_nanos() as f64;
        std::hint::black_box(sink);
        refs = mem;
        best = best.min(ns / mem.max(1) as f64);
    }
    (best, refs)
}

/// Stage probe 2 — walk: replays the decoded (core, addr, write) trace
/// through `access_into`, the one hierarchy walk `System::access` makes
/// per reference. Identity-translated addresses keep the probe
/// side-effect-free with respect to the OS layer; hit/miss mix is not
/// identical to the measured cell's, but the per-probe host cost is
/// what this stage prices. Returns best ns/reference.
fn measure_walk(instructions_per_core: u64, reps: u32) -> f64 {
    let params = ScaledParams::tiny();
    // Decode each core's reference trace once.
    let mut system = build_cell(Architecture::ChameleonOpt, instructions_per_core);
    let streams = spawn_streams(&mut system, instructions_per_core);
    let cores = streams.len();
    let traces: Vec<Vec<(u64, bool)>> = streams
        .into_iter()
        .map(|mut s| {
            let mut v = Vec::new();
            while let Some(op) = s.next_op() {
                match op {
                    Op::Load(a) => v.push((a, false)),
                    Op::Store(a) => v.push((a, true)),
                    Op::Compute(_) => {}
                }
            }
            v
        })
        .collect();
    let total: usize = traces.iter().map(Vec::len).sum();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut h = Hierarchy::new(
            cores,
            params.l1.clone(),
            params.l2.clone(),
            params.l3.clone(),
        );
        let mut wb = WritebackBuf::new();
        let mut pf = PrefetchBuf::new();
        let mut cursors = vec![0usize; cores];
        let mut sink = 0u64;
        let started = Instant::now();
        // Round-robin across cores, mirroring the min-clock scheduler's
        // roughly even interleaving on a rate-symmetric workload.
        let mut live = cores;
        while live > 0 {
            live = 0;
            for (core, trace) in traces.iter().enumerate() {
                let i = cursors[core];
                if i >= trace.len() {
                    continue;
                }
                live += 1;
                cursors[core] = i + 1;
                let (addr, write) = trace[i];
                let (_, lat) = h.access_into(core, addr, write, &mut wb, &mut pf);
                sink = sink.wrapping_add(lat as u64);
            }
        }
        let ns = started.elapsed().as_nanos() as f64;
        std::hint::black_box(sink);
        best = best.min(ns / total.max(1) as f64);
    }
    best
}

/// Builds the stage decomposition around an already-measured
/// Chameleon-Opt cell.
fn measure_stages(cell: &HotpathCell, instructions_per_core: u64, reps: u32) -> StageBreakdown {
    let (decode, _) = measure_decode(instructions_per_core, reps);
    let walk = measure_walk(instructions_per_core, reps);
    let total = cell.ns_per_access;
    StageBreakdown {
        decode_ns_per_access: decode,
        walk_ns_per_access: walk,
        translate_glue_ns_per_access: (total - decode - walk).max(0.0),
        total_ns_per_access: total,
    }
}

/// The `--check` drift gate: measure the Chameleon-Opt cell fresh and compare against the committed report. Returns an error
/// message when the committed numbers no longer describe this tree.
fn check_drift(path: &str, instructions_per_core: u64, reps: u32) -> Result<(), String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let committed: HotpathReport =
        serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))?;
    if committed.schema_version != HOTPATH_SCHEMA_VERSION {
        return Err(format!(
            "{path}: schema_version {} (expected {HOTPATH_SCHEMA_VERSION}); \
             regenerate with `cargo run --release -p chameleon-bench --bin bench_hotpath`",
            committed.schema_version
        ));
    }
    let reference = committed
        .cells
        .iter()
        .find(|c| c.arch == "Chameleon-Opt")
        .ok_or_else(|| format!("{path}: no Chameleon-Opt cell"))?;
    let fresh = measure(Architecture::ChameleonOpt, instructions_per_core, reps);
    let limit = reference.ns_per_access * (1.0 + DRIFT_TOLERANCE);
    println!(
        "[check] Chameleon-Opt: fresh {:.1} ns/access vs committed {:.1} \
         (limit {:.1})",
        fresh.ns_per_access, reference.ns_per_access, limit
    );
    if fresh.ns_per_access > limit {
        return Err(format!(
            "hot-path regression: fresh Chameleon-Opt ns/access {:.1} exceeds \
             committed {:.1} by more than {:.0}%",
            fresh.ns_per_access,
            reference.ns_per_access,
            DRIFT_TOLERANCE * 100.0
        ));
    }
    Ok(())
}

fn main() {
    let mut instructions_per_core: u64 = 2_000_000;
    let mut reps: u32 = 3;
    let mut out = "BENCH_hotpath.json".to_owned();
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instr" => {
                let v = args.next().expect("--instr takes a value");
                instructions_per_core = v.parse().expect("--instr takes an integer");
            }
            "--reps" => {
                let v = args.next().expect("--reps takes a value");
                reps = v.parse().expect("--reps takes an integer");
            }
            "--out" => out = args.next().expect("--out takes a path"),
            "--check" => check = Some(args.next().expect("--check takes a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    if let Some(path) = check {
        if let Err(msg) = check_drift(&path, instructions_per_core, reps) {
            eprintln!("[check] FAILED: {msg}");
            std::process::exit(1);
        }
        return;
    }

    let archs = [
        Architecture::Pom,
        Architecture::Chameleon,
        Architecture::ChameleonOpt,
        Architecture::Alloy,
        Architecture::FlatSmall,
    ];
    println!(
        "[hotpath] {} instr/core, fixed workload mcf, {} architectures, best of {}",
        instructions_per_core,
        archs.len(),
        reps
    );
    let cells: Vec<HotpathCell> = archs
        .into_iter()
        .map(|arch| {
            let cell = measure(arch, instructions_per_core, reps);
            println!(
                "  {:<14} {:>7.1} ns/access  ({} accesses)",
                cell.arch, cell.ns_per_access, cell.accesses
            );
            cell
        })
        .collect();
    let opt = cells
        .iter()
        .find(|c| c.arch == "Chameleon-Opt")
        .expect("Chameleon-Opt cell measured above");
    let stages = measure_stages(opt, instructions_per_core, reps);
    println!(
        "  stages (Chameleon-Opt): decode {:.1} + walk {:.1} + translate/glue {:.1} \
         = {:.1} ns/access",
        stages.decode_ns_per_access,
        stages.walk_ns_per_access,
        stages.translate_glue_ns_per_access,
        stages.total_ns_per_access
    );
    let report = HotpathReport {
        schema_version: HOTPATH_SCHEMA_VERSION,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        instructions_per_core,
        app: "mcf".to_owned(),
        cells,
        stages,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&out, json).expect("write report");
    println!("[saved {out}]");
}
