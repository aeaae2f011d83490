#![forbid(unsafe_code)]
//! Experiment harness: shared infrastructure for the per-figure runner
//! binaries (`fig*`, `table*`, `sec6f_isa_overhead`, `repro_all`).
//!
//! Every runner prints the rows/series the corresponding paper artifact
//! reports and writes a JSON dump under `results/` so EXPERIMENTS.md
//! tables can be regenerated and diffed.
//!
//! The heavyweight sweep shared by Figures 15–19 and Table II (every
//! Table II application against every Figure 18 architecture) runs on
//! the `chameleon-sweep` engine: cells execute in parallel and land in
//! the content-addressed store under `results/store/`, one file per
//! cell, keyed by the full job description. Interrupted sweeps resume;
//! parameter changes re-run exactly the affected cells. Delete
//! `results/store/` to force a full re-run.

use std::path::PathBuf;

use chameleon::{Architecture, ScaledParams, SystemReport};
use chameleon_simkit::metrics::EpochRecord;
use chameleon_sweep::{Job, Store, SweepEngine};
use chameleon_workloads::AppSpec;
use serde::{de::DeserializeOwned, Serialize};

pub use chameleon_sweep::{RunScale, ScaleError};

/// The experiment harness: parameters, result directory, and shared
/// sweeps.
pub struct Harness {
    params: ScaledParams,
    out_dir: PathBuf,
}

impl Harness {
    /// Creates a harness with the default laptop-scale parameters, the
    /// `CHAMELEON_SCALE` sizing, and `results/` as the output directory.
    ///
    /// # Errors
    ///
    /// An unrecognised `CHAMELEON_SCALE` (see [`RunScale::from_env`]).
    pub fn new() -> Result<Self, ScaleError> {
        let scale = RunScale::from_env()?;
        let mut params = ScaledParams::laptop();
        params.instructions_per_core = scale.instructions();
        let out_dir = PathBuf::from(
            std::env::var("CHAMELEON_RESULTS").unwrap_or_else(|_| "results".to_owned()),
        );
        // INVARIANT: harness setup; an uncreatable results dir is fatal by design.
        std::fs::create_dir_all(&out_dir).expect("create results directory");
        Ok(Self { params, out_dir })
    }

    /// The system parameters used for runs.
    pub fn params(&self) -> &ScaledParams {
        &self.params
    }

    /// Replaces the system parameters (ratio sweeps).
    pub fn set_params(&mut self, params: ScaledParams) {
        self.params = params;
    }

    /// The Table II application names in the paper's (alphabetical)
    /// figure order.
    pub fn app_names() -> Vec<String> {
        AppSpec::table2().into_iter().map(|a| a.name).collect()
    }

    /// The base seed every harness job is described with (each cell's
    /// effective RNG seed additionally mixes in its job hash).
    pub const BASE_SEED: u64 = 42;

    /// The jobs a `apps x archs` (row-major) matrix expands to under the
    /// current parameters.
    pub fn matrix_jobs(&self, archs: &[Architecture], apps: &[String]) -> Vec<Job> {
        apps.iter()
            .flat_map(|app| {
                archs
                    .iter()
                    .map(|&arch| Job::new(arch, app.clone(), &self.params, Self::BASE_SEED))
            })
            .collect()
    }

    /// The sweep engine every harness run goes through: worker count
    /// from `CHAMELEON_JOBS` / available parallelism, cells memoised in
    /// the content-addressed store under `results/store/`.
    fn engine(&self) -> SweepEngine {
        let mut engine = SweepEngine::new();
        match Store::open(self.out_dir.join("store")) {
            Ok(store) => engine = engine.with_store(store),
            Err(e) => eprintln!("warning: result store unavailable ({e}); running uncached"),
        }
        engine
    }

    /// Runs one (architecture, application) cell with the paper protocol.
    /// The cell goes through the sweep engine, so it hits (and feeds)
    /// the same store as matrix runs.
    pub fn run_cell(&self, arch: Architecture, app: &str) -> SystemReport {
        let job = Job::new(arch, app.to_owned(), &self.params, Self::BASE_SEED);
        let outcome = self
            .engine()
            // INVARIANT: a sweep-engine failure (worker panic) is harness-fatal.
            .run(std::slice::from_ref(&job))
            .expect("cell runs");
        // INVARIANT: run() returns exactly one report per submitted job.
        outcome.reports.into_iter().next().expect("one report")
    }

    /// Runs a full architecture x application matrix on the parallel
    /// sweep engine. Results are ordered `apps x archs` (row-major) and
    /// bit-identical to a serial run regardless of worker count.
    pub fn run_matrix(&self, archs: &[Architecture], apps: &[String]) -> Vec<SystemReport> {
        let jobs = self.matrix_jobs(archs, apps);
        // INVARIANT: a sweep-engine failure (worker panic) is harness-fatal.
        let outcome = self.engine().run(&jobs).unwrap_or_else(|e| panic!("{e}"));
        if outcome.cached > 0 {
            println!(
                "[sweep: {} cells from results/store/, {} simulated]",
                outcome.cached, outcome.ran
            );
        }
        outcome.reports
    }

    /// Path of a result file.
    pub fn result_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }

    /// Serialises a result to `results/<name>` as pretty JSON.
    pub fn save_json<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.result_path(name);
        // INVARIANT: results are plain data structs; serialisation cannot fail,
        // and an unwritable results dir is harness-fatal by design.
        let json = serde_json::to_string_pretty(value).expect("serialise result");
        std::fs::write(&path, json).expect("write result file");
        println!("[saved {}]", path.display());
    }

    /// Loads a cached result if present.
    pub fn load_json<T: DeserializeOwned>(&self, name: &str) -> Option<T> {
        let path = self.result_path(name);
        let data = std::fs::read_to_string(&path).ok()?;
        serde_json::from_str(&data).ok()
    }

    /// The shared Figures 15–19 / Table II sweep: every Table II app
    /// against every Figure 18 architecture. Cells are memoised
    /// individually in `results/store/` (keyed by the full job
    /// description), so the first runner to need the sweep computes it,
    /// the rest assemble it from the store, and a parameter change
    /// re-runs only the cells it invalidates. This replaces the old
    /// monolithic `results/main_sweep.json` cache, whose invalidation
    /// checked only `instructions_per_core`.
    pub fn main_sweep(&self) -> MainSweep {
        let archs = Architecture::figure18();
        let apps = Self::app_names();
        println!(
            "[main sweep: {} apps x {} architectures, {} instr/core]",
            apps.len(),
            archs.len(),
            self.params.instructions_per_core
        );
        let reports = self.run_matrix(&archs, &apps);
        MainSweep {
            instructions: self.params.instructions_per_core,
            archs: archs.iter().map(|a| a.label()).collect(),
            apps,
            reports,
        }
    }
}

/// The assembled Figures 15–19 / Table II sweep.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MainSweep {
    /// Instructions per core the sweep was run with.
    pub instructions: u64,
    /// Architecture labels, in [`Architecture::figure18`] order.
    pub archs: Vec<String>,
    /// Application names.
    pub apps: Vec<String>,
    /// Row-major `apps x archs` reports.
    pub reports: Vec<SystemReport>,
}

impl MainSweep {
    /// The report for `(app, arch)` by index.
    pub fn cell(&self, app_idx: usize, arch_idx: usize) -> &SystemReport {
        &self.reports[app_idx * self.archs.len() + arch_idx]
    }

    /// Column of reports for one architecture index.
    pub fn arch_column(&self, arch_idx: usize) -> Vec<&SystemReport> {
        (0..self.apps.len())
            .map(|a| self.cell(a, arch_idx))
            .collect()
    }
}

/// One epoch's activity in an [`EpochTimeline`], derived from the
/// metrics-registry deltas a run records every AutoNUMA-style epoch.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochPoint {
    /// Zero-based epoch index.
    pub index: u64,
    /// CPU cycle at which the epoch closed.
    pub end_at: u64,
    /// Demand accesses the HMA serviced during the epoch.
    pub demand_accesses: u64,
    /// Of those, accesses serviced by the stacked DRAM.
    pub stacked_hits: u64,
    /// Per-epoch stacked hit rate (not cumulative).
    pub hit_rate: f64,
    /// Segment swaps during the epoch.
    pub swaps: u64,
    /// Cache-mode segment fills during the epoch.
    pub fills: u64,
    /// Cache-mode dirty writebacks during the epoch.
    pub writebacks: u64,
    /// Fraction of segment groups in cache mode at the epoch boundary.
    pub cache_fraction: f64,
}

/// A per-epoch timeline for one (architecture, application) run,
/// extracted from [`SystemReport::metrics`]. This is the shape the
/// `fig15`/`fig18` runners dump and the integration tests consume.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochTimeline {
    /// Metrics schema version the timeline was derived from.
    pub schema_version: u32,
    /// Architecture label.
    pub arch: String,
    /// Workload name.
    pub app: String,
    /// Epochs, oldest first. The final entry covers the partial tail of
    /// the run.
    pub epochs: Vec<EpochPoint>,
}

impl EpochTimeline {
    /// Derives the timeline from a report's metrics export.
    pub fn from_report(report: &SystemReport) -> Self {
        let epochs = report
            .metrics
            .epochs
            .iter()
            .map(|e| {
                let demand = delta(e, "hma.demand_accesses");
                let hits = delta(e, "hma.stacked_hits");
                EpochPoint {
                    index: e.index,
                    end_at: e.end_at,
                    demand_accesses: demand,
                    stacked_hits: hits,
                    hit_rate: ratio(hits, demand),
                    swaps: delta(e, "hma.swaps"),
                    fills: delta(e, "hma.fills"),
                    writebacks: delta(e, "hma.writebacks"),
                    cache_fraction: e
                        .gauges
                        .get("hma.mode.cache_fraction")
                        .copied()
                        .unwrap_or(0.0),
                }
            })
            .collect();
        Self {
            schema_version: report.metrics.schema_version,
            arch: report.arch.clone(),
            app: report.workload.clone(),
            epochs,
        }
    }
}

/// One AutoNUMA scan epoch of Figure 2c, derived by [`autonuma_timeline`].
/// Field names and order are the `fig02c_autonuma_timeline.json` schema.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NumaEpoch {
    /// Pages AutoNUMA migrated into the stacked node at the epoch's end.
    pub migrated: u64,
    /// Migrations that failed with `-ENOMEM` at the epoch's end.
    pub enomem: u64,
    /// Fraction of the epoch's demand accesses served off-chip.
    pub remote_ratio: f64,
    /// Fraction of the epoch's demand accesses served by stacked DRAM.
    pub stacked_hit_rate: f64,
}

/// Figure 2c's timeline from a report's metrics epochs: one row per
/// closed epoch, oldest first. Row k takes its hit rate from record k and
/// its migrations from record k+1, because `System` closes the registry
/// epoch before AutoNUMA migrates; the final record (the run's partial
/// tail) therefore supplies only the last row's migrations.
///
/// # Panics
///
/// Panics if `params` attach a prefetcher: prefetch fills count as HMA
/// demand accesses, so the registry's hit rate would no longer be the
/// demand-miss rate AutoNUMA balances on.
pub fn autonuma_timeline(report: &SystemReport, params: &ScaledParams) -> Vec<NumaEpoch> {
    assert!(
        params.prefetcher.is_none(),
        "the Figure 2c timeline needs demand misses only; detach the prefetcher"
    );
    report
        .metrics
        .epochs
        .windows(2)
        .map(|pair| {
            let (epoch, next) = (&pair[0], &pair[1]);
            let demand = delta(epoch, "hma.demand_accesses");
            let hits = delta(epoch, "hma.stacked_hits");
            NumaEpoch {
                migrated: delta(next, "os.migrations"),
                enomem: delta(next, "os.migration_enomem"),
                remote_ratio: ratio(demand - hits, demand),
                stacked_hit_rate: ratio(hits, demand),
            }
        })
        .collect()
}

/// Counter `name`'s delta over one epoch record (0 when it did not move).
fn delta(epoch: &EpochRecord, name: &str) -> u64 {
    epoch.deltas.get(name).copied().unwrap_or(0)
}

/// `part / whole`, or 0 for an epoch with no demand.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Prints a header in the style used by all runners.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean helper re-exported for runners.
pub fn geomean(values: &[f64]) -> f64 {
    chameleon_simkit::stats::geometric_mean(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_match_table2() {
        let names = Harness::app_names();
        assert_eq!(names.len(), 14);
        assert!(names.iter().any(|n| n == "mcf"));
    }

    #[test]
    fn scale_from_env_default_is_full() {
        // Note: relies on CHAMELEON_SCALE being unset in the test env.
        if std::env::var("CHAMELEON_SCALE").is_err() {
            assert_eq!(RunScale::from_env(), Ok(RunScale::Full));
        }
        assert!(RunScale::Quick.instructions() < RunScale::Full.instructions());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    fn tiny_matrix_runs() {
        let mut h = Harness::new().expect("the test environment sets no CHAMELEON_SCALE");
        let mut p = ScaledParams::tiny();
        p.instructions_per_core = 10_000;
        h.set_params(p);
        let reports = h.run_matrix(
            &[Architecture::Pom, Architecture::ChameleonOpt],
            &["mcf".to_owned()],
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].arch, "PoM");
        assert_eq!(reports[1].arch, "Chameleon-Opt");
    }
}
