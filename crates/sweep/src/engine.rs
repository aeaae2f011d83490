//! The parallel execution engine: a `std::thread` worker pool over a
//! shared work queue, with per-job panic isolation, store-backed reuse,
//! and deterministic ordered assembly.
//!
//! Determinism contract: every cell is an independent [`Job`] whose
//! effective seed is a pure function of its description, and results are
//! assembled into the caller's job order regardless of which worker
//! finished first — so a 16-worker run serialises bit-identically to a
//! 1-worker run.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use chameleon::SystemReport;

use crate::job::Job;
use crate::progress::Progress;
use crate::store::Store;

/// Why a sweep failed.
#[derive(Debug)]
pub enum SweepError {
    /// One or more cells failed; each entry is `(job label, cause)`.
    /// Surviving cells still ran (and were stored), so a re-run only
    /// retries the failures.
    JobsFailed(Vec<(String, String)>),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::JobsFailed(fails) => {
                writeln!(f, "{} sweep cell(s) failed:", fails.len())?;
                for (label, cause) in fails {
                    writeln!(f, "  {label}: {cause}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// What a sweep did, with the ordered reports.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One report per input job, in input order.
    pub reports: Vec<SystemReport>,
    /// Cells satisfied from the store without running.
    pub cached: usize,
    /// Distinct cells actually simulated this run: jobs that repeat an
    /// earlier job's key share its simulation.
    pub ran: usize,
}

/// Resolves the worker count: the `CHAMELEON_JOBS` environment variable
/// if set (warning on garbage), otherwise `available_parallelism`,
/// clamped to the number of runnable jobs.
pub fn worker_count(pending_jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = match std::env::var("CHAMELEON_JOBS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "warning: CHAMELEON_JOBS={v:?} is not a positive integer; \
                     using {hw} (available parallelism)"
                );
                hw
            }
        },
        Err(_) => hw,
    };
    requested.min(pending_jobs.max(1))
}

/// The sweep engine: worker count, optional result store, progress
/// painting.
pub struct SweepEngine {
    workers: Option<usize>,
    store: Option<Store>,
    progress: bool,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine with environment-derived worker count, no store, and
    /// progress painting on.
    pub fn new() -> Self {
        Self {
            workers: None,
            store: None,
            progress: true,
        }
    }

    /// Forces an exact worker count (tests pin 1 vs 2; `CHAMELEON_JOBS`
    /// is ignored).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Attaches a content-addressed result store: stored cells are
    /// reused, fresh cells are persisted as soon as they finish.
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(store);
        self
    }

    /// Disables the stderr progress line (tests, quiet batch runs).
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Runs every job, reusing stored cells, and returns reports in job
    /// order. Each distinct [`Job::key`] is simulated (and stored) once;
    /// repeats get a copy of its report.
    ///
    /// # Errors
    ///
    /// [`SweepError::JobsFailed`] if any cell panicked or returned an
    /// error; completed cells are still stored, so a re-run resumes.
    pub fn run(&self, jobs: &[Job]) -> Result<SweepOutcome, SweepError> {
        let mut slots: Vec<Option<SystemReport>> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<usize> = Vec::new();
        // (repeat, first): a job whose key an earlier pending job has.
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut first_by_key: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let hit = self.store.as_ref().and_then(|s| s.load(job));
            if hit.is_none() {
                let key = job.key().0;
                match first_by_key.get(&key) {
                    Some(&first) => repeats.push((i, first)),
                    None => {
                        first_by_key.insert(key, i);
                        pending.push(i);
                    }
                }
            }
            slots.push(hit);
        }
        let cached = jobs.len() - pending.len() - repeats.len();
        let progress = Progress::new(cached + pending.len(), cached, self.progress);

        let workers = self
            .workers
            .unwrap_or_else(|| worker_count(pending.len()))
            .min(pending.len().max(1));
        let slots = Mutex::new(slots);
        let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let qi = next.fetch_add(1, Ordering::SeqCst);
                    if qi >= pending.len() {
                        break;
                    }
                    let idx = pending[qi];
                    let job = &jobs[idx];
                    // Panic isolation: one diverging cell reports its
                    // cause and the rest of the sweep completes.
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job.run()));
                    let mut accesses = 0;
                    match outcome {
                        Ok(Ok(report)) => {
                            if let Some(store) = &self.store {
                                if let Err(e) = store.save(job, &report) {
                                    eprintln!("warning: failed to store cell {}: {e}", job.key());
                                }
                            }
                            accesses = report.run.total_mem_ops();
                            lock_recovered(&slots)[idx] = Some(report);
                        }
                        Ok(Err(msg)) => {
                            lock_recovered(&failures).push((idx, msg));
                        }
                        Err(panic) => {
                            lock_recovered(&failures).push((idx, panic_message(panic.as_ref())));
                        }
                    }
                    progress.cell_done(accesses);
                });
            }
        });

        let mut failures = failures
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !failures.is_empty() {
            failures.sort_by_key(|(idx, _)| *idx);
            return Err(SweepError::JobsFailed(
                failures
                    .into_iter()
                    .map(|(idx, cause)| (jobs[idx].label(), cause))
                    .collect(),
            ));
        }
        let mut slots = slots
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for &(repeat, first) in &repeats {
            slots[repeat] = slots[first].clone();
        }
        let reports = slots
            .into_iter()
            // INVARIANT: the failures branch above returned early.
            .map(|r| r.expect("no failures means every slot is filled"))
            .collect();
        Ok(SweepOutcome {
            reports,
            cached,
            ran: pending.len(),
        })
    }
}

/// Locks a worker-shared mutex, recovering from poison: cell panics are
/// already isolated by `catch_unwind`, so a poisoned lock can only mean
/// some *other* worker died mid-append — and every critical section here
/// is a single slot assignment or vector push, so the protected data is
/// still well-formed. Recovering keeps the surviving workers (and the
/// final collection pass) going instead of cascading the panic.
fn lock_recovered<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon::{Architecture, ScaledParams};

    fn tiny_jobs() -> Vec<Job> {
        let mut p = ScaledParams::tiny();
        p.instructions_per_core = 5_000;
        vec![
            Job::new(Architecture::Pom, "mcf", &p, 42),
            Job::new(Architecture::ChameleonOpt, "mcf", &p, 42),
        ]
    }

    #[test]
    fn reports_come_back_in_job_order() {
        let out = SweepEngine::new()
            .with_workers(2)
            .quiet()
            .run(&tiny_jobs())
            .unwrap();
        assert_eq!(out.reports.len(), 2);
        assert_eq!(out.reports[0].arch, "PoM");
        assert_eq!(out.reports[1].arch, "Chameleon-Opt");
        assert_eq!(out.cached, 0);
        assert_eq!(out.ran, 2);
    }

    #[test]
    fn failing_cell_reports_instead_of_poisoning_the_sweep() {
        let mut jobs = tiny_jobs();
        jobs[1].app = "doom".to_owned();
        let err = SweepEngine::new()
            .with_workers(2)
            .quiet()
            .run(&jobs)
            .unwrap_err();
        let SweepError::JobsFailed(fails) = err;
        assert_eq!(fails.len(), 1);
        assert!(fails[0].0.contains("doom"));
        assert!(fails[0].1.contains("doom"), "cause names the bad app");
    }

    #[test]
    fn repeated_jobs_simulate_and_store_once() {
        let dir = std::env::temp_dir().join(format!("chameleon-sweep-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = tiny_jobs().remove(0);
        let out = SweepEngine::new()
            .with_workers(2)
            .with_store(Store::open(&dir).unwrap())
            .quiet()
            .run(&[job.clone(), job])
            .unwrap();
        assert_eq!(out.ran, 1);
        assert_eq!(out.cached, 0);
        let json = |r: &SystemReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&out.reports[0]), json(&out.reports[1]));
        assert_eq!(Store::open(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_clamps_to_pending() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1) >= 1);
    }
}
