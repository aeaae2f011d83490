//! DRAM energy accounting.
//!
//! The paper motivates PoM partly by *cost and power* (Section I: a
//! smaller off-chip DRAM for the same OS-visible capacity). This module
//! attaches an activate/read/write/refresh/background energy model to the
//! device so policies can also be compared on DRAM energy — swaps are
//! bandwidth, and bandwidth is picojoules.
//!
//! Energy parameters default to DDR3/HBM-class numbers (per-operation
//! picojoules); they are deliberately simple — the shape of the
//! comparison (swap-heavy policies burn more row activations and bus
//! transfers) is what matters.

use serde::{Deserialize, Serialize};

/// Per-operation energy parameters in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Energy per row activation (ACT + PRE pair).
    pub activate_pj: f64,
    /// Energy per 64B read burst (column access + I/O).
    pub read_pj: f64,
    /// Energy per 64B write burst.
    pub write_pj: f64,
    /// Energy per refresh operation (all banks of a channel).
    pub refresh_pj: f64,
    /// Background power in milliwatts (charged per elapsed time by the
    /// caller via [`EnergyCounter::background_energy_mj`]).
    pub background_mw: f64,
}

impl EnergyParams {
    /// HBM-class stacked DRAM: cheaper I/O per bit (short interposer
    /// wires), similar core energy.
    pub fn stacked() -> Self {
        Self {
            activate_pj: 900.0,
            read_pj: 260.0,
            write_pj: 280.0,
            refresh_pj: 28_000.0,
            background_mw: 350.0,
        }
    }

    /// DDR3/DDR4-class off-chip DRAM: expensive off-package I/O.
    pub fn offchip() -> Self {
        Self {
            activate_pj: 1_600.0,
            read_pj: 520.0,
            write_pj: 560.0,
            refresh_pj: 60_000.0,
            background_mw: 550.0,
        }
    }
}

/// Accumulated energy for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyCounter {
    /// Row activations performed.
    pub activations: u64,
    /// 64B read bursts.
    pub read_bursts: u64,
    /// 64B write bursts.
    pub write_bursts: u64,
    /// Refresh operations.
    pub refreshes: u64,
}

impl EnergyCounter {
    /// Dynamic energy in millijoules under the given parameters.
    pub fn dynamic_energy_mj(&self, p: &EnergyParams) -> f64 {
        (self.activations as f64 * p.activate_pj
            + self.read_bursts as f64 * p.read_pj
            + self.write_bursts as f64 * p.write_pj
            + self.refreshes as f64 * p.refresh_pj)
            / 1.0e9
    }

    /// Background energy for an elapsed wall time, in millijoules.
    pub fn background_energy_mj(p: &EnergyParams, elapsed_cycles: u64, cpu_mhz: f64) -> f64 {
        let seconds = elapsed_cycles as f64 / (cpu_mhz * 1.0e6);
        p.background_mw * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_sums_components() {
        let c = EnergyCounter {
            activations: 1000,
            read_bursts: 10_000,
            write_bursts: 5_000,
            refreshes: 10,
        };
        let p = EnergyParams::offchip();
        let expected =
            (1000.0 * 1600.0 + 10_000.0 * 520.0 + 5000.0 * 560.0 + 10.0 * 60_000.0) / 1.0e9;
        assert!((c.dynamic_energy_mj(&p) - expected).abs() < 1e-12);
    }

    #[test]
    fn background_scales_with_time() {
        let p = EnergyParams::stacked();
        // 3.6e9 cycles at 3600MHz = 1 second -> background_mw mJ.
        let e = EnergyCounter::background_energy_mj(&p, 3_600_000_000, 3600.0);
        assert!((e - 350.0).abs() < 1e-9);
    }

    #[test]
    fn stacked_io_cheaper_than_offchip() {
        assert!(EnergyParams::stacked().read_pj < EnergyParams::offchip().read_pj);
        assert!(EnergyParams::stacked().write_pj < EnergyParams::offchip().write_pj);
    }

    #[test]
    fn empty_counter_is_zero() {
        let c = EnergyCounter::default();
        assert_eq!(c.dynamic_energy_mj(&EnergyParams::stacked()), 0.0);
    }
}
