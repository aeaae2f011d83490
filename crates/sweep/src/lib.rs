#![forbid(unsafe_code)]
//! `chameleon-sweep` — deterministic parallel experiment execution.
//!
//! The Figures 15–19 / Table II evaluation is a matrix of independent
//! simulation cells. This crate turns that matrix into explicit
//! [`Job`]s, runs them on a [`SweepEngine`] worker pool sized from
//! `available_parallelism` (capped by the `CHAMELEON_JOBS` environment
//! variable), and memoises every cell in a content-addressed [`Store`] under
//! `results/store/` keyed by a stable hash of the full job description
//! plus the metrics schema version.
//!
//! Guarantees:
//!
//! * **Determinism** — a parallel sweep produces bit-identical
//!   [`chameleon::SystemReport`]s to a serial sweep: per-cell RNG seeds
//!   are derived from the job hash, and results are assembled in job
//!   order, never completion order.
//! * **Resumability** — each cell is its own store file, written
//!   atomically; an interrupted sweep re-run skips every cell already on
//!   disk.
//! * **Precise invalidation** — the store key covers architecture,
//!   application, seed, instruction budget, *all* of
//!   [`chameleon::ScaledParams`] and the metrics `schema_version`, so a
//!   parameter change re-runs exactly the affected cells.
//! * **Panic isolation** — a diverging cell fails its job; the rest of
//!   the sweep completes and the error names the cell.
//!
//! ```no_run
//! use chameleon::{Architecture, ScaledParams};
//! use chameleon_sweep::{Job, Store, SweepEngine};
//!
//! let params = ScaledParams::laptop();
//! let jobs: Vec<Job> = ["mcf", "stream"]
//!     .iter()
//!     .map(|app| Job::new(Architecture::ChameleonOpt, *app, &params, 42))
//!     .collect();
//! let engine = SweepEngine::new().with_store(Store::open("results/store").unwrap());
//! let outcome = engine.run(&jobs).unwrap();
//! assert_eq!(outcome.reports.len(), 2);
//! ```

mod engine;
mod grid;
mod job;
mod progress;
mod scale;
mod store;

pub use engine::{worker_count, SweepEngine, SweepError, SweepOutcome};
pub use grid::GridSpec;
pub use job::{Job, JobKey};
pub use scale::{RunScale, ScaleError};
pub use store::{Store, StoredCell};
