//! The unit of sweep work: one (architecture, application) simulation
//! cell with its full parameterisation, and the stable content hash that
//! names it in the result store.

use std::fmt;

use chameleon::{Architecture, ScaledParams, SystemReport};
use chameleon_simkit::hash::{fnv1a, splitmix64};
use chameleon_simkit::metrics::SCHEMA_VERSION;
use serde::{Deserialize, Serialize};

/// A stable 64-bit content hash naming one [`Job`] in the store.
///
/// The key covers the *entire* job description (architecture, application,
/// every field of [`ScaledParams`], seed, instruction budget) plus the
/// metrics [`SCHEMA_VERSION`], so any change that could alter the report —
/// ratio, core count, DRAM timings, metrics shape — produces a different
/// key and the stale cell is simply never looked up again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobKey(pub u64);

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One simulation cell: everything needed to reproduce a single
/// [`SystemReport`] bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Memory organisation to simulate.
    pub arch: Architecture,
    /// Table II application name.
    pub app: String,
    /// Full system parameters (the job overrides `instructions_per_core`
    /// with [`Job::instructions`] at run time).
    pub params: ScaledParams,
    /// Base RNG seed; the effective per-cell seed mixes in the job hash.
    pub seed: u64,
    /// Instruction budget per core.
    pub instructions: u64,
}

/// The exact payload the job key hashes, serialised to canonical JSON.
/// Field order is the hash contract: the vendored `serde_json` keeps
/// declaration order, so this struct's layout *is* the key format.
/// (Owned fields: the vendored derive does not support generics.)
#[derive(Serialize)]
struct KeyPayload {
    schema_version: u32,
    arch: Architecture,
    app: String,
    seed: u64,
    instructions: u64,
    params: ScaledParams,
}

impl Job {
    /// Builds a job taking the instruction budget from
    /// `params.instructions_per_core`.
    pub fn new(
        arch: Architecture,
        app: impl Into<String>,
        params: &ScaledParams,
        seed: u64,
    ) -> Self {
        Self {
            arch,
            app: app.into(),
            params: params.clone(),
            seed,
            instructions: params.instructions_per_core,
        }
    }

    /// The content hash naming this job in the store.
    pub fn key(&self) -> JobKey {
        let mut params = self.params.clone();
        // The budget is hashed through `instructions`; neutralise the
        // duplicate so `Job::new(p).key()` equals a hand-built job with
        // the same budget.
        params.instructions_per_core = self.instructions;
        let payload = KeyPayload {
            schema_version: SCHEMA_VERSION,
            arch: self.arch,
            app: self.app.clone(),
            seed: self.seed,
            instructions: self.instructions,
            params,
        };
        // INVARIANT: KeyPayload is strings, integers, and finite float
        // config values in plain structs — no non-string map keys, no
        // NaN (which serde_json rejects) — so serialisation cannot fail.
        let json = serde_json::to_string(&payload).expect("job description serialises");
        JobKey(fnv1a(json.as_bytes()))
    }

    /// The RNG seed the cell actually runs with: the base seed mixed with
    /// the job hash, so every cell of a sweep streams differently while
    /// remaining a pure function of the job description (serial and
    /// parallel runs agree by construction).
    pub fn effective_seed(&self) -> u64 {
        splitmix64(self.key().0 ^ self.seed)
    }

    /// A short human label for progress lines and error messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.arch.label(), self.app)
    }

    /// Runs the cell with the paper protocol and returns its report.
    /// Deterministic: depends only on the job description.
    pub fn run(&self) -> Result<SystemReport, String> {
        let mut params = self.params.clone();
        params.instructions_per_core = self.instructions;
        let mut system = chameleon::System::new(self.arch, &params);
        system.run_paper_protocol(&self.app, self.effective_seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Job {
        let mut p = ScaledParams::tiny();
        p.instructions_per_core = 10_000;
        Job::new(Architecture::Pom, "mcf", &p, 42)
    }

    #[test]
    fn key_is_stable_for_identical_jobs() {
        assert_eq!(base().key(), base().key());
        assert_eq!(base().effective_seed(), base().effective_seed());
    }

    #[test]
    fn key_covers_every_dimension() {
        let b = base();
        let mut by_app = b.clone();
        by_app.app = "stream".to_owned();
        let mut by_arch = b.clone();
        by_arch.arch = Architecture::ChameleonOpt;
        let mut by_seed = b.clone();
        by_seed.seed = 43;
        let mut by_budget = b.clone();
        by_budget.instructions = 20_000;
        let mut by_ratio = b.clone();
        by_ratio.params = by_ratio.params.with_ratio(3).unwrap();
        let mut by_cores = b.clone();
        by_cores.params.cores = 3;
        let mut by_timing = b.clone();
        by_timing.params.l3.latency += 1;
        let keys: Vec<JobKey> = [
            &b, &by_app, &by_arch, &by_seed, &by_budget, &by_ratio, &by_cores, &by_timing,
        ]
        .iter()
        .map(|j| j.key())
        .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "jobs {i} and {j} must hash differently");
                }
            }
        }
    }

    #[test]
    fn budget_field_wins_over_params_budget() {
        let mut p = ScaledParams::tiny();
        p.instructions_per_core = 10_000;
        let via_new = Job::new(Architecture::Pom, "mcf", &p, 42);
        let mut p2 = ScaledParams::tiny();
        p2.instructions_per_core = 999_999; // ignored: `instructions` is the budget
        let mut hand_built = Job::new(Architecture::Pom, "mcf", &p2, 42);
        hand_built.instructions = 10_000;
        assert_eq!(via_new.key(), hand_built.key());
    }

    #[test]
    fn key_display_is_16_hex_chars() {
        let s = base().key().to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn tiny_job_runs() {
        let report = base().run().expect("mcf is a Table II app");
        assert_eq!(report.arch, "PoM");
        assert_eq!(report.workload, "mcf");
    }

    #[test]
    fn unknown_app_is_an_error_not_a_panic() {
        let mut j = base();
        j.app = "doom".to_owned();
        assert!(j.run().is_err());
    }
}
