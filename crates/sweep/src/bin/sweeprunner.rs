//! `sweeprunner` — execute arbitrary (apps × archs × ratios) experiment
//! grids on the parallel sweep engine with the content-addressed store.
//!
//! ```text
//! sweeprunner [--apps mcf,stream] [--archs pom,chameleon-opt]
//!             [--ratios 3,7] [--instructions N] [--seed N]
//!             [--jobs N] [--out grid.json] [--no-store]
//! ```
//!
//! Defaults reproduce the shared Figures 15–19 / Table II sweep: every
//! Table II application against every Figure 18 architecture at the
//! default 1:5 ratio, `CHAMELEON_SCALE` sizing. Cells already present in
//! `results/store/` are skipped, so an interrupted sweep resumes where
//! it stopped.

use std::path::PathBuf;
use std::process::ExitCode;

use chameleon::{Architecture, ScaledParams};
use chameleon_sweep::{GridSpec, Store, SweepEngine};
use chameleon_workloads::AppSpec;

struct Options {
    apps: Vec<String>,
    archs: Vec<Architecture>,
    ratios: Vec<u64>,
    instructions: Option<u64>,
    seed: u64,
    jobs: Option<usize>,
    out: Option<PathBuf>,
    store: bool,
}

const USAGE: &str = "usage: sweeprunner [options]
  --apps a,b,c       applications (default: all Table II apps)
  --archs x,y        architectures (default: the Figure 18 lineup);
                     spellings: flat-small, flat-large, alloy, pom, cameo,
                     chameleon, chameleon-opt, polymorphic, unison,
                     memcache, ch-flex, numa-first-touch, autonuma-<pct>
  --ratios 3,7       stacked:off-chip ratios (default: the params' own 1:5)
  --instructions N   instruction budget per core (default: CHAMELEON_SCALE)
  --seed N           base seed (default 42)
  --jobs N           worker threads (default: CHAMELEON_JOBS or all cores)
  --out FILE         also dump the grid's reports to FILE (JSON)
  --no-store         skip the content-addressed store (always recompute)
  --help             this message";

fn parse_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        apps: Vec::new(),
        archs: Vec::new(),
        ratios: Vec::new(),
        instructions: None,
        seed: 42,
        jobs: None,
        out: None,
        store: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--apps" => opts.apps = parse_list(&value("--apps")?),
            "--archs" => {
                for spec in parse_list(&value("--archs")?) {
                    opts.archs.push(Architecture::parse(&spec)?);
                }
            }
            "--ratios" => {
                for r in parse_list(&value("--ratios")?) {
                    opts.ratios.push(
                        r.parse::<u64>()
                            .map_err(|e| format!("bad ratio {r:?}: {e}"))?,
                    );
                }
            }
            "--instructions" => {
                let v = value("--instructions")?;
                opts.instructions = Some(
                    v.parse()
                        .map_err(|e| format!("bad --instructions {v:?}: {e}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
            }
            "--jobs" => {
                let v = value("--jobs")?;
                let n: usize = v.parse().map_err(|e| format!("bad --jobs {v:?}: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                opts.jobs = Some(n);
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--no-store" => opts.store = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweeprunner: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scale = match chameleon_sweep::RunScale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("sweeprunner: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut params = ScaledParams::laptop();
    params.instructions_per_core = opts.instructions.unwrap_or_else(|| scale.instructions());

    let mut grid = GridSpec::new(
        params,
        if opts.apps.is_empty() {
            AppSpec::table2().into_iter().map(|a| a.name).collect()
        } else {
            opts.apps
        },
        if opts.archs.is_empty() {
            Architecture::figure18()
        } else {
            opts.archs
        },
    );
    grid.ratios = opts.ratios;
    grid.seed = opts.seed;

    for app in &grid.apps {
        if let Err(e) = AppSpec::parse(app) {
            eprintln!("sweeprunner: {e}");
            return ExitCode::FAILURE;
        }
    }
    let jobs = match grid.jobs() {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("sweeprunner: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out_dir =
        PathBuf::from(std::env::var("CHAMELEON_RESULTS").unwrap_or_else(|_| "results".to_owned()));
    let mut engine = SweepEngine::new();
    if opts.store {
        match Store::open(out_dir.join("store")) {
            Ok(store) => engine = engine.with_store(store),
            Err(e) => {
                eprintln!("sweeprunner: cannot open result store: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(jobs) = opts.jobs {
        engine = engine.with_workers(jobs);
    }

    println!(
        "[sweeprunner] {} apps x {} archs x {} ratio(s) = {} cells, {} instr/core, seed {}",
        grid.apps.len(),
        grid.archs.len(),
        grid.ratios.len().max(1),
        jobs.len(),
        grid.params.instructions_per_core,
        grid.seed,
    );
    let outcome = match engine.run(&jobs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweeprunner: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "[sweeprunner] done: {} cells ({} from store, {} simulated)",
        outcome.reports.len(),
        outcome.cached,
        outcome.ran,
    );

    // Compact per-cell summary table.
    println!(
        "{:<12} {:<24} {:>9} {:>9} {:>10} {:>9}",
        "app", "arch", "hit-rate", "amat", "swaps", "ipc"
    );
    for (job, report) in jobs.iter().zip(&outcome.reports) {
        println!(
            "{:<12} {:<24} {:>8.1}% {:>9.1} {:>10} {:>9.3}",
            job.app,
            report.arch,
            report.stacked_hit_rate * 100.0,
            report.amat,
            report.swaps,
            report.run.geomean_ipc(),
        );
    }

    if let Some(out) = opts.out {
        let dump: Vec<serde_json::Value> = jobs
            .iter()
            .zip(&outcome.reports)
            .map(|(job, report)| {
                serde_json::json!({
                    "key": job.key().to_string(),
                    "app": job.app,
                    "arch": report.arch,
                    "report": report,
                })
            })
            .collect();
        let json = serde_json::to_string_pretty(&dump).expect("serialise grid dump");
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("sweeprunner: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("[saved {}]", out.display());
    }
    ExitCode::SUCCESS
}
