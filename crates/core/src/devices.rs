//! The pair of DRAM devices behind every policy, plus bulk-transfer
//! primitives (segment swaps, cache fills, writebacks) built from
//! device-level accesses so they consume real bus bandwidth on both
//! memories.

use chameleon_dram::{DramModel, MemOp};
use chameleon_simkit::Cycle;

use crate::HmaConfig;

/// The stacked and off-chip DRAM devices.
///
/// Addresses handed to [`HmaDevices`] are *device-relative*: the stacked
/// device covers `[0, stacked)`, the off-chip device `[0, offchip)` (the
/// policies subtract the off-chip base).
#[derive(Debug, Clone)]
pub struct HmaDevices {
    /// The high-bandwidth stacked device.
    pub stacked: DramModel,
    /// The off-chip device.
    pub offchip: DramModel,
}

impl HmaDevices {
    /// Instantiates both devices from a configuration.
    pub fn new(cfg: &HmaConfig) -> Self {
        Self {
            stacked: DramModel::new(cfg.stacked.clone(), cfg.cpu_clock),
            offchip: DramModel::new(cfg.offchip.clone(), cfg.cpu_clock),
        }
    }

    /// Swaps a segment between `stacked_addr` (stacked-relative) and
    /// `offchip_addr` (off-chip-relative): both segments are read into
    /// the local swap buffers, then written to their new homes. Returns
    /// the completion cycle.
    pub fn swap_segments(
        &mut self,
        stacked_addr: u64,
        offchip_addr: u64,
        seg_bytes: u32,
        now: Cycle,
    ) -> Cycle {
        // The swap engine pipelines line-by-line through its local
        // buffers: reads and writes proceed concurrently on both devices,
        // so the swap completes when the slowest leg drains (plus one
        // buffered line of skew).
        let r_s = self.stacked.bulk(stacked_addr, seg_bytes, MemOp::Read, now);
        let r_o = self.offchip.bulk(offchip_addr, seg_bytes, MemOp::Read, now);
        let w_s = self
            .stacked
            .bulk(stacked_addr, seg_bytes, MemOp::Write, now);
        let w_o = self
            .offchip
            .bulk(offchip_addr, seg_bytes, MemOp::Write, now);
        let skew = self.offchip.line_transfer_cycles();
        r_s.done.max(r_o.done).max(w_s.done).max(w_o.done) + skew
    }

    /// Copies a segment from off-chip into the stacked slot (cache fill).
    pub fn fill_segment(
        &mut self,
        offchip_addr: u64,
        stacked_addr: u64,
        seg_bytes: u32,
        now: Cycle,
    ) -> Cycle {
        let r = self.offchip.bulk(offchip_addr, seg_bytes, MemOp::Read, now);
        let w = self
            .stacked
            .bulk(stacked_addr, seg_bytes, MemOp::Write, now);
        r.done.max(w.done) + self.offchip.line_transfer_cycles()
    }

    /// Copies a segment from the stacked slot back off-chip (dirty-victim
    /// writeback).
    pub fn writeback_segment(
        &mut self,
        stacked_addr: u64,
        offchip_addr: u64,
        seg_bytes: u32,
        now: Cycle,
    ) -> Cycle {
        let r = self.stacked.bulk(stacked_addr, seg_bytes, MemOp::Read, now);
        let w = self
            .offchip
            .bulk(offchip_addr, seg_bytes, MemOp::Write, now);
        r.done.max(w.done) + self.offchip.line_transfer_cycles()
    }

    /// Zeroes a segment of the stacked device — the security clear of
    /// Section V-D2.
    pub fn clear_segment(&mut self, stacked_addr: u64, seg_bytes: u32, now: Cycle) -> Cycle {
        self.stacked
            .bulk(stacked_addr, seg_bytes, MemOp::Write, now)
            .done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> HmaDevices {
        HmaDevices::new(&HmaConfig::scaled_laptop())
    }

    #[test]
    fn swap_moves_bytes_on_both_devices() {
        let mut d = devices();
        let done = d.swap_segments(0, 4096, 2048, 100);
        assert!(done > 100);
        // Each device sees one read + one write of the segment.
        assert_eq!(d.stacked.stats().bytes_transferred.value(), 2 * 2048);
        assert_eq!(d.offchip.stats().bytes_transferred.value(), 2 * 2048);
    }

    #[test]
    fn fill_reads_offchip_writes_stacked() {
        let mut d = devices();
        let done = d.fill_segment(8192, 0, 2048, 0);
        assert!(done > 0);
        assert_eq!(d.offchip.stats().reads.value(), 1);
        assert_eq!(d.stacked.stats().writes.value(), 1);
        assert_eq!(d.stacked.stats().reads.value(), 0);
    }

    #[test]
    fn writeback_is_the_reverse_of_fill() {
        let mut d = devices();
        d.writeback_segment(0, 8192, 2048, 0);
        assert_eq!(d.stacked.stats().reads.value(), 1);
        assert_eq!(d.offchip.stats().writes.value(), 1);
    }

    #[test]
    fn fill_cheaper_than_swap() {
        let mut a = devices();
        let mut b = devices();
        let fill = a.fill_segment(4096, 0, 2048, 0);
        let swap = b.swap_segments(0, 4096, 2048, 0);
        assert!(
            fill < swap,
            "a fill ({fill}) moves half the data of a swap ({swap})"
        );
    }

    #[test]
    fn clear_touches_one_device() {
        let mut d = devices();
        d.clear_segment(0, 2048, 0);
        assert_eq!(d.stacked.stats().writes.value(), 1);
        assert_eq!(d.offchip.stats().writes.value(), 0);
    }
}
