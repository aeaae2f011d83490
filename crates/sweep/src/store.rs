//! Content-addressed on-disk result store.
//!
//! Each simulation cell lives in its own file `results/store/<key>.json`
//! named by the job's [`JobKey`](crate::JobKey). Sweeps are therefore
//! resumable after interruption — already-stored cells are skipped — and
//! a parameter change invalidates exactly the cells it affects, not the
//! whole matrix. Files are written atomically (temp file + rename) so a
//! killed sweep never leaves a half-written cell behind; a corrupt or
//! mismatched file is treated as a miss and recomputed.

use std::io;
use std::path::PathBuf;

use chameleon::SystemReport;
use chameleon_simkit::metrics::SCHEMA_VERSION;
use serde::{Deserialize, Serialize};

use crate::job::{Job, JobKey};

/// One stored cell: enough metadata to audit the store with `jq` plus the
/// full report. The `key` and `schema_version` fields are verified on
/// load against the requesting job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredCell {
    /// Hex job key (must match the file name and the requesting job).
    pub key: String,
    /// Metrics schema version the report was produced under.
    pub schema_version: u32,
    /// Architecture label (audit metadata).
    pub arch: String,
    /// Application name (audit metadata).
    pub app: String,
    /// Base seed the job was described with.
    pub seed: u64,
    /// Instruction budget per core.
    pub instructions: u64,
    /// The cell's full report.
    pub report: SystemReport,
}

/// A directory of content-addressed cells.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The file a key is stored under.
    pub fn path_for(&self, key: JobKey) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Loads the report for `job` if a valid cell is stored. Any
    /// defect — unreadable file, corrupt JSON, key or schema mismatch —
    /// reads as a miss so callers recompute instead of crashing.
    pub fn load(&self, job: &Job) -> Option<SystemReport> {
        let key = job.key();
        let data = std::fs::read_to_string(self.path_for(key)).ok()?;
        let cell: StoredCell = serde_json::from_str(&data).ok()?;
        if cell.key != key.to_string() || cell.schema_version != SCHEMA_VERSION {
            return None;
        }
        Some(cell.report)
    }

    /// Stores the report for `job`, atomically.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cell cannot be written.
    pub fn save(&self, job: &Job, report: &SystemReport) -> io::Result<PathBuf> {
        let key = job.key();
        let cell = StoredCell {
            key: key.to_string(),
            schema_version: SCHEMA_VERSION,
            arch: job.arch.label(),
            app: job.app.clone(),
            seed: job.seed,
            instructions: job.instructions,
            report: report.clone(),
        };
        let json = serde_json::to_string_pretty(&cell)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = self.path_for(key);
        // Unique-per-process temp name; rename is atomic on the same
        // filesystem, so concurrent writers of the same key both land a
        // complete file (their contents are identical by determinism).
        let tmp = self.root.join(format!("{key}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Number of cells currently stored (for progress/status lines).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon::{Architecture, ScaledParams};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chameleon-sweep-store-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_job() -> Job {
        let mut p = ScaledParams::tiny();
        p.instructions_per_core = 5_000;
        Job::new(Architecture::Pom, "mcf", &p, 7)
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let store = Store::open(scratch("roundtrip")).unwrap();
        let job = tiny_job();
        assert!(store.load(&job).is_none(), "fresh store must miss");
        let report = job.run().unwrap();
        store.save(&job, &report).unwrap();
        assert_eq!(store.len(), 1);
        let loaded = store.load(&job).expect("stored cell must hit");
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&report).unwrap(),
            "store round-trip must preserve the report exactly"
        );
        let _ = std::fs::remove_dir_all(&store.root);
    }

    #[test]
    fn corrupt_cell_reads_as_miss() {
        let store = Store::open(scratch("corrupt")).unwrap();
        let job = tiny_job();
        let report = job.run().unwrap();
        let path = store.save(&job, &report).unwrap();
        std::fs::write(&path, "{ not json").unwrap();
        assert!(store.load(&job).is_none(), "corrupt file must miss");
        let _ = std::fs::remove_dir_all(&store.root);
    }

    #[test]
    fn key_mismatch_reads_as_miss() {
        let store = Store::open(scratch("mismatch")).unwrap();
        let job = tiny_job();
        let report = job.run().unwrap();
        store.save(&job, &report).unwrap();
        // A file stored under another job's name (e.g. hand-copied) must
        // not satisfy this job even if it parses.
        let mut other = job.clone();
        other.seed = 8;
        std::fs::copy(store.path_for(job.key()), store.path_for(other.key())).unwrap();
        assert!(store.load(&other).is_none(), "embedded key must match");
        let _ = std::fs::remove_dir_all(&store.root);
    }
}
