//! DRAM device configuration (geometry, clocks, timing parameters).

use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::ClockDomain;
use serde::{Deserialize, Serialize};

/// Core DRAM timing parameters, expressed in device (bus) clock cycles
/// except for the refresh values which are physical times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTimings {
    /// Column access strobe latency (cycles from READ to first data beat).
    pub t_cas: u32,
    /// RAS-to-CAS delay (cycles from ACTIVATE until a column command).
    pub t_rcd: u32,
    /// Row precharge time (cycles to close a row).
    pub t_rp: u32,
    /// Minimum time a row must stay open after ACTIVATE (cycles).
    pub t_ras: u32,
    /// Refresh cycle time in nanoseconds (device busy per refresh).
    pub t_rfc_ns: f64,
    /// Average refresh interval in nanoseconds (one refresh per tREFI).
    pub t_refi_ns: f64,
}

impl DramTimings {
    /// The 11-11-11-28 timings used for both devices in Table I, with the
    /// given refresh cycle time.
    pub fn table1(t_rfc_ns: f64) -> Self {
        Self {
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rfc_ns,
            // Standard DDR3/DDR4 average refresh interval.
            t_refi_ns: 7800.0,
        }
    }
}

/// Full configuration of one DRAM device plus its controller-visible
/// geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Human-readable name used in stats output ("stacked", "offchip").
    pub name: String,
    /// Total device capacity.
    pub capacity: ByteSize,
    /// Independent channels (each with its own data bus).
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row-buffer size per bank.
    pub row_bytes: ByteSize,
    /// Bus clock (DDR: two transfers per clock).
    pub bus_clock: ClockDomain,
    /// Data bus width per channel, in bits.
    pub bus_bits: u32,
    /// Timing parameters.
    pub timings: DramTimings,
}

impl DramConfig {
    /// Table I stacked DRAM: 4GB, 2 channels, 128-bit @ 1.6GHz (DDR 3.2),
    /// 2 ranks/channel, 8 banks/rank, tRFC 138ns.
    pub fn stacked_4gb() -> Self {
        Self {
            name: "stacked".to_owned(),
            capacity: ByteSize::gib(4),
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            row_bytes: ByteSize::kib(2),
            bus_clock: ClockDomain::from_mhz(1600.0),
            bus_bits: 128,
            timings: DramTimings::table1(138.0),
        }
    }

    /// Table I off-chip DRAM: 20GB, 2 channels, 64-bit @ 800MHz (DDR 1.6),
    /// 2 ranks/channel, 8 banks/rank, tRFC 530ns.
    pub fn offchip_20gb() -> Self {
        Self {
            name: "offchip".to_owned(),
            capacity: ByteSize::gib(20),
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            row_bytes: ByteSize::kib(2),
            bus_clock: ClockDomain::from_mhz(800.0),
            bus_bits: 64,
            timings: DramTimings::table1(530.0),
        }
    }

    /// The stacked configuration scaled to an arbitrary capacity (used for
    /// laptop-scale experiment runs; timing and bandwidth are unchanged).
    pub fn stacked_scaled(capacity: ByteSize) -> Self {
        Self {
            capacity,
            ..Self::stacked_4gb()
        }
    }

    /// The off-chip configuration scaled to an arbitrary capacity.
    pub fn offchip_scaled(capacity: ByteSize) -> Self {
        Self {
            capacity,
            ..Self::offchip_20gb()
        }
    }

    /// Total banks across the device.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Bytes transferred per bus clock cycle on one channel (DDR doubles
    /// the bus width's natural rate).
    pub fn bytes_per_bus_cycle(&self) -> u64 {
        (self.bus_bits as u64 / 8) * 2
    }

    /// Peak bandwidth of the whole device in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.bytes_per_bus_cycle() as f64 * self.bus_clock.mhz() * 1.0e6 * self.channels as f64
            / 1.0e9
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !self.row_bytes.is_power_of_two() {
            return Err(format!(
                "row size {} must be a power of two",
                self.row_bytes
            ));
        }
        for (what, v) in [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(format!("{what} must be a non-zero power of two, got {v}"));
            }
        }
        if self.bus_bits == 0 || !self.bus_bits.is_multiple_of(8) {
            return Err(format!(
                "bus width must be a multiple of 8 bits, got {}",
                self.bus_bits
            ));
        }
        let row_total = self.row_bytes.bytes() * self.total_banks() as u64;
        if self.capacity.bytes() < row_total || !self.capacity.bytes().is_multiple_of(row_total) {
            return Err(format!(
                "capacity {} must be a multiple of one row across all banks ({row_total} bytes)",
                self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_configs_validate() {
        DramConfig::stacked_4gb().validate().unwrap();
        DramConfig::offchip_20gb().validate().unwrap();
    }

    #[test]
    fn stacked_is_4x_offchip_bandwidth() {
        let s = DramConfig::stacked_4gb().peak_bandwidth_gbps();
        let o = DramConfig::offchip_20gb().peak_bandwidth_gbps();
        assert!((s / o - 4.0).abs() < 1e-9, "ratio {}", s / o);
        // 2ch * 32B/cycle * 1.6e9 = 102.4 GB/s
        assert!((s - 102.4).abs() < 1e-6);
        assert!((o - 25.6).abs() < 1e-6);
    }

    #[test]
    fn geometry_math() {
        let c = DramConfig::stacked_4gb();
        assert_eq!(c.total_banks(), 32);
        assert_eq!(c.bytes_per_bus_cycle(), 32);
    }

    #[test]
    fn scaled_keeps_timing() {
        let c = DramConfig::stacked_scaled(chameleon_simkit::mem::ByteSize::mib(64));
        assert_eq!(c.bus_bits, 128);
        assert_eq!(c.capacity.bytes(), 64 << 20);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_capacity_not_row_aligned() {
        let mut c = DramConfig::stacked_4gb();
        // Not a multiple of 32 banks * 2KiB rows.
        c.capacity = ByteSize::bytes_exact((4 << 30) + 2048);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_channels() {
        let mut c = DramConfig::stacked_4gb();
        c.channels = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_odd_bus() {
        let mut c = DramConfig::stacked_4gb();
        c.bus_bits = 65;
        assert!(c.validate().is_err());
    }

    #[test]
    fn offchip_non_pow2_capacity_is_valid() {
        // 20GB is not a power of two but divides evenly into rows.
        let c = DramConfig::offchip_20gb();
        assert_eq!(c.capacity.bytes(), 20u64 << 30);
        c.validate().unwrap();
    }
}
