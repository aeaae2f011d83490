//! The engine's two contracts, end to end:
//!
//! 1. **Determinism** — a parallel sweep serialises bit-identically to a
//!    serial sweep of the same grid.
//! 2. **Resumability** — an interrupted sweep's stored cells are reused
//!    on re-run; corrupt cells are recomputed, not crashed on.

use chameleon::{Architecture, ScaledParams};
use chameleon_sweep::{GridSpec, Job, Store, SweepEngine};

fn small_grid() -> Vec<Job> {
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = 10_000;
    GridSpec::new(
        params,
        vec!["mcf".to_owned(), "stream".to_owned()],
        vec![Architecture::Pom, Architecture::ChameleonOpt],
    )
    .jobs()
    .expect("the base ratio needs no split")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("chameleon-sweep-it-{}-{tag}", std::process::id()))
}

fn scratch_store(tag: &str) -> Store {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).expect("scratch store")
}

fn to_json(reports: &[chameleon::SystemReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| serde_json::to_string_pretty(r).expect("report serialises"))
        .collect()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let jobs = small_grid();
    let serial = SweepEngine::new()
        .with_workers(1)
        .quiet()
        .run(&jobs)
        .expect("serial sweep");
    let parallel = SweepEngine::new()
        .with_workers(2)
        .quiet()
        .run(&jobs)
        .expect("parallel sweep");
    assert_eq!(serial.ran, jobs.len());
    assert_eq!(parallel.ran, jobs.len());
    let serial_json = to_json(&serial.reports);
    let parallel_json = to_json(&parallel.reports);
    assert_eq!(
        serial_json, parallel_json,
        "2-worker sweep must serialise exactly like the 1-worker sweep"
    );
    // Reports come back in job order, not completion order.
    for (job, report) in jobs.iter().zip(&serial.reports) {
        assert_eq!(report.workload, job.app);
        assert_eq!(report.arch, job.arch.label());
    }
}

#[test]
fn interrupted_sweep_resumes_from_the_store() {
    let jobs = small_grid();
    let store = scratch_store("resume");

    // "Interrupted" sweep: only the first two cells completed and were
    // stored before the run died.
    let partial = SweepEngine::new()
        .with_workers(2)
        .with_store(store.clone())
        .quiet()
        .run(&jobs[..2])
        .expect("partial sweep");
    assert_eq!(partial.ran, 2);
    assert_eq!(store.len(), 2);

    // The re-run skips the stored cells and simulates only the rest.
    let resumed = SweepEngine::new()
        .with_workers(2)
        .with_store(store.clone())
        .quiet()
        .run(&jobs)
        .expect("resumed sweep");
    assert_eq!(resumed.cached, 2, "stored cells must be reused");
    assert_eq!(resumed.ran, jobs.len() - 2);

    // And the assembled result is still identical to a from-scratch run.
    let fresh = SweepEngine::new()
        .with_workers(1)
        .quiet()
        .run(&jobs)
        .expect("fresh sweep");
    assert_eq!(to_json(&resumed.reports), to_json(&fresh.reports));

    // A third run is fully cached.
    let warm = SweepEngine::new()
        .with_store(store.clone())
        .quiet()
        .run(&jobs)
        .expect("warm sweep");
    assert_eq!(warm.cached, jobs.len());
    assert_eq!(warm.ran, 0);
    let _ = std::fs::remove_dir_all(scratch_dir("resume"));
}

#[test]
fn corrupt_store_cell_is_recomputed_not_crashed_on() {
    let jobs = small_grid();
    let store = scratch_store("corrupt");
    let first = SweepEngine::new()
        .with_store(store.clone())
        .quiet()
        .run(&jobs)
        .expect("first sweep");

    // Truncate one cell mid-file, as a killed writer without the atomic
    // rename would have left it.
    let victim = store.path_for(jobs[1].key());
    let bytes = std::fs::read(&victim).expect("stored cell readable");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate cell");

    let recovered = SweepEngine::new()
        .with_store(store.clone())
        .quiet()
        .run(&jobs)
        .expect("recovery sweep");
    assert_eq!(
        recovered.cached,
        jobs.len() - 1,
        "only the corrupt cell misses"
    );
    assert_eq!(recovered.ran, 1, "the corrupt cell is recomputed");
    assert_eq!(to_json(&recovered.reports), to_json(&first.reports));

    // The recomputed cell was re-stored and now hits again.
    assert!(store.load(&jobs[1]).is_some());
    let _ = std::fs::remove_dir_all(scratch_dir("corrupt"));
}

#[test]
fn store_key_invalidates_on_any_parameter_change() {
    let store = scratch_store("invalidate");
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = 10_000;
    let job = Job::new(Architecture::Pom, "mcf", &params, 42);
    let report = job.run().expect("cell runs");
    store.save(&job, &report).expect("store cell");

    // Same cell, one DRAM-geometry knob changed: different key, miss.
    let mut changed = job.clone();
    changed.params = changed.params.with_ratio(3).unwrap();
    assert_ne!(job.key(), changed.key());
    assert!(store.load(&changed).is_none());
    // The original still hits.
    assert!(store.load(&job).is_some());
    let _ = std::fs::remove_dir_all(scratch_dir("invalidate"));
}
