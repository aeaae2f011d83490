//! The request-level DRAM device model.

use chameleon_simkit::{ClockDomain, Cycle};

use crate::addr::AddrDecoder;
use crate::bank::{Bank, CpuTimings, RowOutcome};
use crate::power::EnergyCounter;
use crate::{DramConfig, DramStats};

/// The kind of memory operation presented to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Demand read: the requester waits for the data.
    Read,
    /// Posted write: the requester does not wait, but the write occupies
    /// bank and bus resources.
    Write,
}

/// Result of one device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data transfer completes on the bus.
    pub done: Cycle,
    /// Latency observed by the requester in CPU cycles. For posted writes
    /// this is the (small) queue-insert latency, not the drain time.
    pub latency: Cycle,
    /// Whether the access hit in an open row buffer.
    pub row_hit: bool,
}

/// A DRAM device: banks, refresh engine, and per-channel data buses.
///
/// All externally visible times are in **CPU cycles**; the constructor
/// converts the device timing parameters using the CPU clock domain.
///
/// # Example
///
/// ```
/// use chameleon_dram::{DramConfig, DramModel, MemOp};
/// use chameleon_simkit::ClockDomain;
///
/// let mut m = DramModel::new(DramConfig::offchip_20gb(), ClockDomain::from_ghz(3.6));
/// let out = m.access(0, 64, MemOp::Read, 0);
/// assert!(out.latency >= 64, "a cold off-chip read costs tens of ns");
/// assert_eq!(m.stats().reads.value(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    decoder: AddrDecoder,
    timings: CpuTimings,
    banks: Vec<Bank>,
    /// Per-channel cycle at which the data bus is free for *demand*
    /// traffic (demand has priority over bulk transfers).
    bus_free: Vec<Cycle>,
    /// Per-channel cursor for low-priority bulk transfers (swap/fill
    /// traffic drained opportunistically from the controller buffers,
    /// paper Section V-D4). Always >= `bus_free`.
    bulk_free: Vec<Cycle>,
    /// How far bulk work may lag behind demand before demand must yield
    /// (models the finite swap/write buffer).
    bulk_lag: Cycle,
    /// Per-channel next scheduled refresh.
    next_refresh: Vec<Cycle>,
    /// CPU cycles to transfer 64 bytes on one channel.
    line_transfer: Cycle,
    /// Fixed posted-write acceptance latency (queue insert).
    write_accept: Cycle,
    stats: DramStats,
    energy: EnergyCounter,
}

impl DramModel {
    /// Builds a device model for `cfg`, with all timing converted into the
    /// `cpu` clock domain.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DramConfig::validate`].
    pub fn new(cfg: DramConfig, cpu: ClockDomain) -> Self {
        let decoder = AddrDecoder::new(&cfg);
        let (timings, line_transfer) = CpuTimings::from_device(&cfg, cpu);
        let banks = vec![Bank::default(); cfg.total_banks() as usize];
        let bus_free = vec![0; cfg.channels as usize];
        let bulk_free = vec![0; cfg.channels as usize];
        let next_refresh = vec![timings.t_refi; cfg.channels as usize];
        Self {
            cfg,
            decoder,
            timings,
            banks,
            bus_free,
            bulk_free,
            bulk_lag: line_transfer * 64,
            next_refresh,
            line_transfer,
            write_accept: 4,
            stats: DramStats::default(),
            energy: EnergyCounter::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics (not device state); used between warm-up and
    /// measurement phases.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.energy = EnergyCounter::default();
    }

    /// Accumulated energy events (pair with
    /// [`crate::EnergyParams`] to get millijoules).
    pub fn energy(&self) -> &EnergyCounter {
        &self.energy
    }

    /// CPU cycles needed to move one 64B line across a channel bus.
    pub fn line_transfer_cycles(&self) -> Cycle {
        self.line_transfer
    }

    /// Services one request of `size` bytes at physical address `addr`,
    /// arriving at CPU cycle `now`.
    ///
    /// Requests larger than 64 bytes are streamed as consecutive line
    /// transfers from the same row (used for segment swaps); they pay one
    /// column access and then occupy the bus back-to-back.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn access(&mut self, addr: u64, size: u32, op: MemOp, now: Cycle) -> AccessOutcome {
        self.do_access(addr, size, op, now, false)
    }

    /// Services a low-priority bulk transfer (segment swap/fill traffic).
    /// Bulk work yields the data bus to demand accesses and is drained
    /// opportunistically from the controller buffers (Section V-D4); it
    /// only delays demand once the bulk backlog exceeds the buffer depth.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn bulk(&mut self, addr: u64, size: u32, op: MemOp, now: Cycle) -> AccessOutcome {
        self.do_access(addr, size, op, now, true)
    }

    fn do_access(
        &mut self,
        addr: u64,
        size: u32,
        op: MemOp,
        now: Cycle,
        bulk: bool,
    ) -> AccessOutcome {
        assert!(size > 0, "zero-sized DRAM access");
        let loc = self.decoder.decode(addr);
        let ch = loc.channel as usize;
        self.apply_refresh(ch, now);

        let flat = loc.flat_bank(&self.cfg);
        let (outcome, bank_data_at) = self.banks[flat].access(loc.row, now, &self.timings);

        // Serialise on the channel data bus: demand uses the priority
        // lane, which may run ahead of pending bulk work by at most the
        // buffer depth (`bulk_lag`); bulk queues behind everything.
        let lines = (size as u64).div_ceil(64);
        let transfer = self.line_transfer * lines;
        let done = if bulk {
            let start = bank_data_at.max(self.bulk_free[ch]).max(self.bus_free[ch]);
            let done = start + transfer;
            self.bulk_free[ch] = done;
            done
        } else {
            let start = bank_data_at
                .max(self.bus_free[ch])
                .max(self.bulk_free[ch].saturating_sub(self.bulk_lag));
            let done = start + transfer;
            self.bus_free[ch] = done;
            // Demand consumes real bus capacity that bulk must wait for.
            self.bulk_free[ch] = self.bulk_free[ch].max(done);
            done
        };

        // Bookkeeping.
        match op {
            MemOp::Read => self.stats.reads.inc(),
            MemOp::Write => self.stats.writes.inc(),
        }
        match outcome {
            RowOutcome::Hit => self.stats.row_hits.inc(),
            RowOutcome::Closed => {
                self.stats.row_closed.inc();
                self.energy.activations += 1;
            }
            RowOutcome::Conflict => {
                self.stats.row_conflicts.inc();
                self.energy.activations += 1;
            }
        }
        self.stats.bytes_transferred.add(lines * 64);
        match op {
            MemOp::Read => self.energy.read_bursts += lines,
            MemOp::Write => self.energy.write_bursts += lines,
        }

        let latency = match op {
            MemOp::Read => done - now,
            MemOp::Write => self.write_accept,
        };
        self.stats.latency.record((done - now) as f64);
        AccessOutcome {
            done,
            latency,
            row_hit: outcome == RowOutcome::Hit,
        }
    }

    fn apply_refresh(&mut self, ch: usize, now: Cycle) {
        // Catch up on any refresh intervals that elapsed before `now`.
        while self.next_refresh[ch] <= now {
            let until = self.next_refresh[ch] + self.timings.t_rfc;
            let cfg = &self.cfg;
            // Banks are laid out flat as ((channel*ranks + rank)*banks + bank).
            for rank in 0..cfg.ranks_per_channel as usize {
                let base =
                    (ch * cfg.ranks_per_channel as usize + rank) * cfg.banks_per_rank as usize;
                for b in 0..cfg.banks_per_rank as usize {
                    self.banks[base + b].refresh_until(until);
                }
            }
            self.stats.refreshes.inc();
            self.energy.refreshes += 1;
            self.next_refresh[ch] += self.timings.t_refi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> ClockDomain {
        ClockDomain::from_ghz(3.6)
    }

    fn stacked() -> DramModel {
        DramModel::new(DramConfig::stacked_4gb(), cpu())
    }

    fn offchip() -> DramModel {
        DramModel::new(DramConfig::offchip_20gb(), cpu())
    }

    #[test]
    fn read_latency_positive_and_recorded() {
        let mut m = stacked();
        let out = m.access(0, 64, MemOp::Read, 100);
        assert!(out.done > 100);
        assert_eq!(out.latency, out.done - 100);
        assert_eq!(m.stats().reads.value(), 1);
        assert_eq!(m.stats().latency.count(), 1);
    }

    #[test]
    fn second_access_same_row_is_hit_and_faster() {
        let mut m = stacked();
        let a = m.access(0x2000, 64, MemOp::Read, 0);
        assert!(!a.row_hit);
        let b = m.access(0x2040, 64, MemOp::Read, a.done);
        assert!(b.row_hit);
        assert!(b.latency < a.latency);
    }

    #[test]
    fn posted_write_returns_quickly_but_occupies_bus() {
        let mut m = stacked();
        let w = m.access(0, 64, MemOp::Write, 0);
        assert!(w.latency <= 8, "posted write should not stall requester");
        assert!(m.bus_free[m.cfg.channels as usize - 1] == 0 || m.bus_free[0] > 0);
        assert_eq!(m.stats().writes.value(), 1);
    }

    #[test]
    fn offchip_slower_than_stacked_for_cold_read() {
        let a = stacked().access(0, 64, MemOp::Read, 0).latency;
        let b = offchip().access(0, 64, MemOp::Read, 0).latency;
        assert!(
            b > a,
            "off-chip cold read ({b}) should exceed stacked ({a})"
        );
    }

    #[test]
    fn bandwidth_bounded_by_peak() {
        // Stream 1 MiB of reads through the stacked device and check the
        // achieved bandwidth never exceeds the configured peak.
        let mut m = stacked();
        let total: u64 = 1 << 20;
        let mut last_done = 0;
        // All requests arrive at cycle 0 (fully queued), so the bus is the
        // only constraint and the stream should approach peak bandwidth.
        for i in 0..(total / 64) {
            let out = m.access(i * 64, 64, MemOp::Read, 0);
            last_done = last_done.max(out.done);
        }
        // `last_done` CPU cycles at 3600 MHz.
        let seconds = last_done as f64 / 3.6e9;
        let bw = m.stats().bytes_transferred.value() as f64 / seconds / 1.0e9;
        let peak = m.cfg.peak_bandwidth_gbps();
        assert!(bw <= peak + 1e-6, "achieved {bw} > peak {peak}");
        assert!(
            bw > peak * 0.5,
            "queued stream should approach peak, got {bw} of {peak}"
        );
    }

    #[test]
    fn stacked_streams_faster_than_offchip() {
        let run = |mut m: DramModel| {
            let mut now = 0;
            for i in 0..4096u64 {
                now = m.access(i * 64, 64, MemOp::Read, now).done;
            }
            now
        };
        let t_stacked = run(stacked());
        let t_offchip = run(offchip());
        assert!(
            t_offchip as f64 > t_stacked as f64 * 1.5,
            "off-chip stream ({t_offchip}) should be much slower than stacked ({t_stacked})"
        );
    }

    #[test]
    fn bulk_transfer_streams_lines() {
        let mut m = stacked();
        let a = m.access(0, 2048, MemOp::Read, 0);
        assert_eq!(m.stats().bytes_transferred.value(), 2048);
        // 2048B = 32 lines; must take at least 32 line-transfer slots.
        assert!(a.done >= 32 * m.line_transfer_cycles());
    }

    #[test]
    fn refresh_eventually_fires() {
        let mut m = stacked();
        // Jump far past several tREFI intervals.
        m.access(0, 64, MemOp::Read, 1_000_000);
        assert!(m.stats().refreshes.value() > 0);
    }

    #[test]
    fn refresh_closes_rows() {
        let mut m = stacked();
        let a = m.access(0, 64, MemOp::Read, 0);
        assert!(!a.row_hit);
        // After a refresh interval, the same row must re-activate.
        let b = m.access(0, 64, MemOp::Read, 40_000_000);
        assert!(!b.row_hit);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_size_rejected() {
        stacked().access(0, 0, MemOp::Read, 0);
    }

    #[test]
    fn demand_overtakes_pending_bulk() {
        // Queue a lot of bulk work at cycle 0, then issue a demand read:
        // the demand access must not wait for the whole bulk backlog.
        let mut with_bulk = stacked();
        let mut bulk_done = 0;
        for i in 0..32u64 {
            bulk_done = with_bulk.bulk(i * 2048, 2048, MemOp::Read, 0).done;
        }
        let demand = with_bulk.access(1 << 20, 64, MemOp::Read, 0);
        assert!(
            demand.done < bulk_done,
            "demand ({}) should finish before the bulk backlog drains ({bulk_done})",
            demand.done
        );
    }

    #[test]
    fn bulk_waits_for_demand() {
        let mut m = stacked();
        let d = m.access(0, 64, MemOp::Read, 0);
        let b = m.bulk(1 << 20, 2048, MemOp::Read, 0);
        assert!(b.done > d.done, "bulk yields the bus to demand");
    }

    #[test]
    fn unbounded_bulk_backlog_eventually_throttles_demand() {
        // The bulk lane may lag only by the buffer depth; beyond that,
        // demand must yield so bandwidth is conserved.
        let mut m = stacked();
        for i in 0..512u64 {
            m.bulk(i * 2048, 2048, MemOp::Read, 0);
        }
        let throttled = m.access(1 << 22, 64, MemOp::Read, 0);
        let mut fresh = stacked();
        let clean = fresh.access(1 << 22, 64, MemOp::Read, 0);
        assert!(
            throttled.latency > clean.latency,
            "a deep bulk backlog ({}) must eventually slow demand ({})",
            throttled.latency,
            clean.latency
        );
    }
}
