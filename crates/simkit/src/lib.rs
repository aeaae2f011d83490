#![forbid(unsafe_code)]
//! Simulation kernel for the Chameleon heterogeneous memory simulator.
//!
//! This crate provides the domain-neutral building blocks every other crate
//! in the workspace is written against:
//!
//! * [`Cycle`] arithmetic and clock-domain conversion ([`ClockDomain`]),
//! * a deterministic, seedable random source ([`rng::DeterministicRng`]),
//! * statistics primitives ([`stats::Counter`], [`stats::RunningStat`]),
//! * the metrics registry and event trace ([`metrics::Registry`],
//!   [`metrics::EventTrace`]) that experiment runners export from,
//! * byte-size helpers ([`mem::ByteSize`]).
//!
//! # Example
//!
//! ```
//! use chameleon_simkit::{ClockDomain, stats::RunningStat};
//!
//! // Off-chip DRAM runs at 800 MHz while cores run at 3.6 GHz.
//! let dram = ClockDomain::from_mhz(800.0);
//! let cpu = ClockDomain::from_mhz(3600.0);
//! let cpu_cycles = dram.convert_cycles(11, &cpu); // tCAS in CPU cycles
//! assert!(cpu_cycles >= 11);
//!
//! let mut lat = RunningStat::new();
//! lat.record(cpu_cycles as f64);
//! assert_eq!(lat.count(), 1);
//! ```

pub mod hash;
pub mod mem;
pub mod metrics;
pub mod rng;
pub mod stats;

/// A point in simulated time, measured in cycles of some clock domain.
///
/// Kept as a plain `u64` alias rather than a newtype: cycle arithmetic is
/// pervasive in the timing models and the clock domain is always implied by
/// context (each model owns a [`ClockDomain`]).
pub type Cycle = u64;

/// A clock domain with a fixed frequency, used to convert cycle counts and
/// wall-clock durations between components running at different speeds
/// (cores, stacked DRAM, off-chip DRAM).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClockDomain {
    /// Frequency in kilohertz. Kept in kHz so common DRAM/CPU frequencies
    /// are representable exactly as integers.
    khz: u64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive, got {mhz}");
        Self {
            khz: (mhz * 1000.0).round() as u64,
        }
    }

    /// Creates a clock domain from a frequency in gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        Self::from_mhz(ghz * 1000.0)
    }

    /// Frequency of this domain in megahertz.
    pub fn mhz(&self) -> f64 {
        self.khz as f64 / 1000.0
    }

    /// Duration of one cycle in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0e6 / self.khz as f64
    }

    /// Converts a duration in nanoseconds to a whole number of cycles of
    /// this domain, rounding up (a partial cycle still occupies the unit).
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        assert!(ns >= 0.0, "duration must be non-negative, got {ns}");
        (ns / self.cycle_ns()).ceil() as Cycle
    }

    /// Converts a cycle count of this domain into cycles of `other`,
    /// rounding up.
    pub fn convert_cycles(&self, cycles: Cycle, other: &ClockDomain) -> Cycle {
        // (cycles / self.khz) seconds * other.khz cycles/second, round up.
        let num = (cycles as u128) * (other.khz as u128);
        let den = self.khz as u128;
        num.div_ceil(den) as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mhz_roundtrip() {
        let d = ClockDomain::from_mhz(800.0);
        assert_eq!(d.mhz(), 800.0);
        assert!((d.cycle_ns() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn ghz_constructor_matches_mhz() {
        assert_eq!(ClockDomain::from_ghz(3.6), ClockDomain::from_mhz(3600.0));
    }

    #[test]
    fn ns_to_cycles_rounds_up() {
        let d = ClockDomain::from_mhz(1000.0); // 1 ns per cycle
        assert_eq!(d.ns_to_cycles(0.0), 0);
        assert_eq!(d.ns_to_cycles(1.0), 1);
        assert_eq!(d.ns_to_cycles(1.01), 2);
        assert_eq!(d.ns_to_cycles(138.0), 138);
    }

    #[test]
    fn convert_cycles_between_domains() {
        let dram = ClockDomain::from_mhz(800.0);
        let cpu = ClockDomain::from_mhz(3600.0);
        // 11 DRAM cycles at 800MHz = 13.75ns = 49.5 CPU cycles -> 50.
        assert_eq!(dram.convert_cycles(11, &cpu), 50);
        // Converting to the same domain is identity.
        assert_eq!(dram.convert_cycles(11, &dram), 11);
    }

    #[test]
    fn convert_zero_cycles() {
        let a = ClockDomain::from_mhz(800.0);
        let b = ClockDomain::from_mhz(3600.0);
        assert_eq!(a.convert_cycles(0, &b), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::from_mhz(0.0);
    }
}
