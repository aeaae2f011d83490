//! `zoo-grid` and the sweep-layer probe: every registered architecture ×
//! mcf as paper-protocol `Job`s on a two-worker `SweepEngine` with a
//! fresh `Store`, then a resume pass that reads the same store back.

use std::path::Path;
use std::time::Instant;

use chameleon::{Architecture, ScaledParams, System};
use chameleon_sweep::{Job, Store, SweepEngine};

use crate::measure::{digest, repeat_for, to_json};
use crate::{Args, Ledger};

/// Sweep workers: the host the benchmark was sized on has two CPUs.
const WORKERS: usize = 2;
/// Instructions per core of a `zoo-grid` cell, at `ScaledParams::tiny()`
/// (at laptop scale CH-Flex's set-up alone takes ~11 s).
pub const GRID_INSTRUCTIONS: u64 = 250_000;
/// The sweep-layer probe the other workloads run: the same grid with
/// shorter cells.
pub const PROBE_INSTRUCTIONS: u64 = 20_000;

fn jobs(instructions: u64, seed: u64) -> Vec<Job> {
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = instructions;
    Architecture::all()
        .into_iter()
        .map(|arch| Job::new(arch, "mcf", &params, seed))
        .collect()
}

fn engine(store: Store) -> SweepEngine {
    SweepEngine::new()
        .with_workers(WORKERS)
        .with_store(store)
        .quiet()
}

/// Command-line spelling of an architecture, as used in metric names.
pub fn arch_name(arch: Architecture) -> String {
    match arch {
        Architecture::AutoNuma { threshold_pct } => format!("autonuma-{threshold_pct}"),
        _ => Architecture::CANONICAL
            .iter()
            .find(|(_, a)| *a == arch)
            .map_or_else(|| arch.label(), |(name, _)| (*name).to_owned()),
    }
}

/// Measures the grid end to end, untraced, round after round.
pub fn measure(args: &Args, ledger: &mut Ledger) {
    let jobs = jobs(GRID_INSTRUCTIONS, args.seed);
    let mut first: Option<Vec<u64>> = None;
    let mut round = 0;
    repeat_for(args.seconds, 3, || {
        round += 1;
        let dir = args.work.join(format!("zoo-store-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        // Set-up pass: every architecture's System once, serially.
        let mut setup_s = 0.0;
        for job in &jobs {
            let t = Instant::now();
            let sys = System::new(job.arch, &job.params);
            setup_s += t.elapsed().as_secs_f64();
            drop(sys);
        }
        let store = Store::open(&dir).expect("the scratch directory is writable");
        let t = Instant::now();
        let ran = engine(store.clone()).run(&jobs);
        let engine_s = t.elapsed().as_secs_f64();
        let resumed = engine(store).run(&jobs);
        let wall_s = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        let (ran, resumed) = match (ran, resumed) {
            (Ok(ran), Ok(resumed)) => (ran, resumed),
            (ran, resumed) => {
                ledger.check(false, || {
                    format!("zoo-grid sweep failed: {:?} {:?}", ran.err(), resumed.err())
                });
                return;
            }
        };
        let digests: Vec<u64> = ran.reports.iter().map(|r| digest(&to_json(r))).collect();
        println!(
            "perfbench digest zoo-grid seed={} {:016x}",
            args.seed,
            digest(&format!("{digests:?}"))
        );
        ledger.check(resumed.ran == 0, || {
            "the resume pass re-ran cells".to_owned()
        });
        for ((job, d), r) in jobs.iter().zip(&digests).zip(&resumed.reports) {
            ledger.check(*d == digest(&to_json(r)), || {
                format!("{}: the resume pass loaded a different report", job.label())
            });
        }
        let first = first.get_or_insert_with(|| digests.clone());
        for ((job, a), b) in jobs.iter().zip(first.iter()).zip(&digests) {
            ledger.check(a == b, || {
                format!(
                    "{} seed {}: two runs reported differently",
                    job.label(),
                    args.seed
                )
            });
        }
        let refs: u64 = ran.reports.iter().map(|r| r.run.total_mem_ops()).sum();
        let instructions: u64 = ran.reports.iter().map(|r| r.run.total_instructions()).sum();
        ledger.metric("wall_s", wall_s, "s");
        ledger.metric("setup_s", setup_s, "s");
        ledger.metric("sim_maccess_per_s", refs as f64 / engine_s / 1e6, "Mref/s");
        ledger.metric(
            "sim_minstr_per_s",
            instructions as f64 / engine_s / 1e6,
            "Minstr/s",
        );
        ledger.next_round();
    });
}

/// Times each cell's set-up and run serially, its serialisation and its
/// store round trip, then runs the grid on the engine: its reports must
/// equal the serial cells', and its wall time against the serial busy
/// time gives the idle the slowest cell leaves the other worker.
pub fn probe(instructions: u64, seed: u64, work: &Path, ledger: &mut Ledger) {
    let jobs = jobs(instructions, seed);
    let (serial_dir, engine_dir) = (work.join("zoo-probe-serial"), work.join("zoo-probe-engine"));
    for dir in [&serial_dir, &engine_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let store = Store::open(&serial_dir).expect("the scratch directory is writable");
    let (mut busy_s, mut json_s, mut save_s, mut load_s) = (0.0, 0.0, 0.0, 0.0);
    let mut serial = Vec::new();
    for job in &jobs {
        let mut params = job.params.clone();
        params.instructions_per_core = job.instructions;
        let t = Instant::now();
        let mut sys = System::new(job.arch, &params);
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = sys.run_paper_protocol(&job.app, job.effective_seed());
        let run_s = t.elapsed().as_secs_f64();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                ledger.check(false, || format!("{}: {e}", job.label()));
                continue;
            }
        };
        let name = arch_name(job.arch);
        ledger.metric(&format!("sweep.cell_setup_s.{name}"), setup_s, "s");
        ledger.metric(&format!("sweep.cell_run_s.{name}"), run_s, "s");
        busy_s += setup_s + run_s;
        let t = Instant::now();
        let json = to_json(&report);
        json_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let saved = store.save(job, &report);
        save_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let loaded = store.load(job);
        load_s += t.elapsed().as_secs_f64();
        let d = digest(&json);
        ledger.check(
            saved.is_ok() && loaded.is_some_and(|r| digest(&to_json(&r)) == d),
            || format!("{}: the store round trip changed the report", job.label()),
        );
        serial.push(d);
    }
    let t = Instant::now();
    let ran =
        engine(Store::open(&engine_dir).expect("the scratch directory is writable")).run(&jobs);
    let engine_s = t.elapsed().as_secs_f64();
    for dir in [&serial_dir, &engine_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    match ran {
        Ok(out) => {
            let same = out
                .reports
                .iter()
                .map(|r| digest(&to_json(r)))
                .eq(serial.iter().copied());
            ledger.check(same, || {
                "engine reports differ from the serially run cells".to_owned()
            });
        }
        Err(e) => ledger.check(false, || format!("sweep probe failed: {e}")),
    }
    let cells = jobs.len() as f64;
    // Negative when the two workers slow each other more than the
    // straggler leaves one of them idle.
    ledger.metric(
        "sweep.straggler_idle_s",
        WORKERS as f64 * engine_s - busy_s,
        "s",
    );
    ledger.metric("sweep.store_save_ms_per_cell", save_s * 1e3 / cells, "ms");
    ledger.metric("sweep.store_load_ms_per_cell", load_s * 1e3 / cells, "ms");
    ledger.metric("simkit.report_json_ms", json_s * 1e3 / cells, "ms");
}
