//! Application specifications calibrated to Table II of the paper.

use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

/// Benchmark suite an application comes from (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPEC CPU2006.
    Spec2006,
    /// NAS Parallel Benchmarks.
    Nas,
    /// Mantevo mini-apps.
    Mantevo,
    /// The STREAM bandwidth benchmark.
    Stream,
}

/// A synthetic model of one application, parameterised by the properties
/// the paper's evaluation depends on.
///
/// `llc_mpki` and `workload_footprint` are Table II's reported values for
/// the 12-copy rate-mode workload; the remaining knobs shape the access
/// stream so the model reproduces them (the Table II experiment re-measures
/// both from this model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Application name as it appears in the paper's figures.
    pub name: String,
    /// Source suite.
    pub suite: Suite,
    /// Table II LLC misses per kilo-instruction (target).
    pub llc_mpki: f64,
    /// Table II memory footprint of the full 12-copy workload.
    pub workload_footprint: ByteSize,
    /// Memory operations per 1000 instructions.
    pub mem_per_kilo: u32,
    /// Fraction of memory operations that stream sequentially through the
    /// footprint (compulsory LLC misses with high segment locality).
    pub stream_fraction: f64,
    /// Size of the hot set serviced mostly by the SRAM caches, as a
    /// fraction of the per-copy footprint.
    pub hot_fraction: f64,
    /// Fraction of memory operations that are stores.
    pub write_fraction: f64,
    /// Length (in 64B lines) of a sequential streaming run before the
    /// stream jumps to a random position — the spatial-locality knob.
    /// STREAM-like kernels have long runs; pointer-chasers like mcf very
    /// short ones.
    pub stream_run_lines: u32,
    /// Fraction of DRAM-bound references that target the *medium* working
    /// set — a multi-MB region revisited throughout execution. This is
    /// the temporal-reuse component a fast memory tier captures (and what
    /// gives the Alloy cache its hit rate); pure streaming kernels have
    /// almost none.
    pub medium_share: f64,
    /// Program-phase length in memory operations: after this many memory
    /// references the hot/medium regions drift to new locations (0 =
    /// single-phase). Phase churn is what makes OS-managed migration decay
    /// in Figure 2c.
    pub phase_mem_ops: u64,
}

impl AppSpec {
    fn new(
        name: &str,
        suite: Suite,
        llc_mpki: f64,
        footprint_gb: f64,
        stream_run_lines: u32,
        medium_share: f64,
    ) -> Self {
        // Memory intensity: enough memory ops that the streaming share
        // can produce the target MPKI. Low-MPKI apps still do memory work
        // but almost all of it hits the hot set.
        let mem_per_kilo = (llc_mpki * 4.0).clamp(60.0, 400.0) as u32;
        let stream_fraction = (llc_mpki / mem_per_kilo as f64).min(0.95);
        Self {
            name: name.to_owned(),
            suite,
            llc_mpki,
            workload_footprint: ByteSize::bytes_exact(
                ((footprint_gb * (1u64 << 30) as f64) as u64 / 4096) * 4096,
            ),
            mem_per_kilo,
            stream_fraction,
            hot_fraction: 0.02,
            write_fraction: 0.3,
            stream_run_lines,
            medium_share,
            // Applications move through program phases: the hot/medium
            // regions drift every ~60K memory operations (several phases
            // per measured run). Hardware remapping re-trains within a
            // phase; OS-managed migration cannot (Figure 2c).
            phase_mem_ops: 60_000,
        }
    }

    /// Canonical spelling of every Table II application, in the order
    /// [`AppSpec::table2`] constructs them. This single list drives both
    /// lookup ([`AppSpec::parse`] / [`AppSpec::by_name`]) and the
    /// unknown-name error message, so the two cannot drift apart.
    pub const NAMES: [&'static str; 14] = [
        "bwaves",
        "cactusADM",
        "cloverleaf",
        "comd",
        "GemsFDTD",
        "hpccg",
        "lbm",
        "leslie3d",
        "mcf",
        "miniAMR",
        "miniFE",
        "miniGhost",
        "SP",
        "stream",
    ];

    /// The 14 applications of Table II with the paper's LLC-MPKI and
    /// memory-footprint values, in [`AppSpec::NAMES`] order.
    pub fn table2() -> Vec<AppSpec> {
        use Suite::*;
        vec![
            AppSpec::new(Self::NAMES[0], Spec2006, 12.91, 21.86, 64, 0.85),
            AppSpec::new(Self::NAMES[1], Spec2006, 2.03, 20.12, 32, 0.90),
            AppSpec::new(Self::NAMES[2], Mantevo, 30.33, 23.01, 64, 0.80),
            AppSpec::new(Self::NAMES[3], Mantevo, 0.71, 23.18, 32, 0.85),
            AppSpec::new(Self::NAMES[4], Spec2006, 20.783, 22.56, 32, 0.85),
            AppSpec::new(Self::NAMES[5], Mantevo, 7.81, 22.15, 32, 0.85),
            AppSpec::new(Self::NAMES[6], Spec2006, 29.55, 19.17, 64, 0.80),
            AppSpec::new(Self::NAMES[7], Spec2006, 12.18, 21.65, 48, 0.85),
            AppSpec::new(Self::NAMES[8], Spec2006, 59.804, 19.65, 8, 0.90),
            AppSpec::new(Self::NAMES[9], Mantevo, 1.44, 22.40, 32, 0.85),
            AppSpec::new(Self::NAMES[10], Mantevo, 0.48, 22.55, 16, 0.85),
            AppSpec::new(Self::NAMES[11], Mantevo, 0.19, 20.68, 16, 0.85),
            AppSpec::new(Self::NAMES[12], Nas, 0.87, 21.72, 32, 0.85),
            AppSpec::new(Self::NAMES[13], Stream, 35.77, 21.66, 512, 0.70),
        ]
    }

    /// Parses a Table II application by name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message listing every valid canonical name.
    pub fn parse(name: &str) -> Result<AppSpec, String> {
        if let Some(idx) = Self::NAMES
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
        {
            // INVARIANT: NAMES and table2() are the same list in the same
            // order (enforced by a test), so the index is always in range.
            return Ok(Self::table2().swap_remove(idx));
        }
        Err(format!(
            "unknown application {name:?}; accepted: {}",
            Self::NAMES.join(", ")
        ))
    }

    /// Looks up a Table II application by name (case-insensitive).
    /// [`AppSpec::parse`] additionally explains *which* names are valid.
    pub fn by_name(name: &str) -> Option<AppSpec> {
        Self::parse(name).ok()
    }

    /// Footprint of one copy in the 12-copy rate-mode workload.
    pub fn per_copy_footprint(&self) -> ByteSize {
        ByteSize::bytes_exact((self.workload_footprint.bytes() / 12 / 4096) * 4096)
    }

    /// Scales the footprint down by `factor` (laptop-scale runs keep every
    /// other parameter unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled(&self, factor: u64) -> AppSpec {
        assert!(factor > 0, "scale factor must be non-zero");
        let mut s = self.clone();
        s.workload_footprint =
            ByteSize::bytes_exact(((self.workload_footprint.bytes() / factor) / 4096) * 4096);
        s
    }

    /// A copy with phase churn enabled (hot/medium regions drift every
    /// `mem_ops` memory references).
    pub fn with_phases(mut self, mem_ops: u64) -> AppSpec {
        self.phase_mem_ops = mem_ops;
        self
    }

    /// Precomputes the app's Table-II op-mix decode gates: the three
    /// per-op Bernoulli decisions [`crate::AppStream`] makes, as exact
    /// integer thresholds (see [`crate::decode`]).
    pub fn op_gates(&self) -> crate::decode::OpMixGates {
        crate::decode::OpMixGates {
            stream: crate::decode::Bernoulli::new(self.stream_fraction),
            medium: crate::decode::Bernoulli::new(self.medium_share),
            write: crate::decode::Bernoulli::new(self.write_fraction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_fourteen_apps() {
        let apps = AppSpec::table2();
        assert_eq!(apps.len(), 14);
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name.clone()).collect();
        assert_eq!(names.len(), 14, "names unique");
    }

    #[test]
    fn lookup_by_name() {
        assert!(AppSpec::by_name("mcf").is_some());
        assert!(AppSpec::by_name("MCF").is_some());
        assert!(AppSpec::by_name("doom").is_none());
    }

    #[test]
    fn names_table_matches_table2_in_order() {
        let apps = AppSpec::table2();
        assert_eq!(apps.len(), AppSpec::NAMES.len());
        for (app, name) in apps.iter().zip(AppSpec::NAMES) {
            assert_eq!(app.name, name);
        }
    }

    #[test]
    fn by_name_round_trips_every_app() {
        for a in AppSpec::table2() {
            assert_eq!(AppSpec::by_name(&a.name).unwrap(), a, "{}", a.name);
            assert_eq!(
                AppSpec::parse(&a.name.to_ascii_uppercase()).unwrap(),
                a,
                "case-insensitive {}",
                a.name
            );
        }
    }

    #[test]
    fn unknown_app_error_lists_valid_names() {
        let err = AppSpec::parse("doom").unwrap_err();
        assert!(err.contains("doom"), "echoes the bad input: {err}");
        for name in AppSpec::NAMES {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn mcf_matches_paper_numbers() {
        let mcf = AppSpec::by_name("mcf").unwrap();
        assert!((mcf.llc_mpki - 59.804).abs() < 1e-9);
        let gb = mcf.workload_footprint.bytes() as f64 / (1u64 << 30) as f64;
        assert!((gb - 19.65).abs() < 0.01);
    }

    #[test]
    fn stream_fraction_bounded() {
        for a in AppSpec::table2() {
            assert!(
                a.stream_fraction > 0.0 && a.stream_fraction <= 0.95,
                "{}",
                a.name
            );
            assert!(a.mem_per_kilo >= 60 && a.mem_per_kilo <= 400, "{}", a.name);
        }
    }

    #[test]
    fn scaled_divides_footprint() {
        let a = AppSpec::by_name("stream").unwrap();
        let s = a.scaled(64);
        let ratio = a.workload_footprint.bytes() as f64 / s.workload_footprint.bytes() as f64;
        assert!((ratio - 64.0).abs() < 0.01);
        assert_eq!(s.llc_mpki, a.llc_mpki);
    }

    #[test]
    fn per_copy_is_twelfth() {
        let a = AppSpec::by_name("bwaves").unwrap();
        let per = a.per_copy_footprint().bytes();
        assert!(per * 12 <= a.workload_footprint.bytes());
        assert!(per * 12 + 12 * 4096 > a.workload_footprint.bytes());
        assert_eq!(per % 4096, 0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        AppSpec::by_name("mcf").unwrap().scaled(0);
    }
}
