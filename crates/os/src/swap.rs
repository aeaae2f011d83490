//! The secondary-storage (SSD) swap device.
//!
//! Table I charges page faults a flat 100K CPU cycles (36 µs on a
//! "Samsung 850 pro"-class SSD). That is accurate for an idle device, but
//! under thrashing (Figures 4/5's low-capacity points) faults queue
//! behind each other: an SSD services a bounded number of 4KB transfers
//! per second. [`SsdModel`] adds that queueing, so heavily
//! over-subscribed configurations degrade super-linearly — the cliff the
//! paper's Figure 4 shows between 16GB and 22GB.

use chameleon_simkit::stats::Counter;
use chameleon_simkit::Cycle;

/// Device latency for one 4KB page transfer, in CPU cycles (Table I:
/// 100K cycles ≈ 36 µs at 2.8GHz).
const PAGE_LATENCY: Cycle = 100_000;
/// Minimum cycles between successive page transfers (1 / throughput).
/// A ~500MB/s device moves a 4KB page every ~8 µs ≈ 22K cycles.
const SERVICE_INTERVAL: Cycle = 22_000;

/// A single-queue SSD: transfers serialise on the device. A new model is
/// idle.
#[derive(Debug, Clone, Default)]
pub struct SsdModel {
    /// Cycle at which the device can accept the next transfer.
    next_free: Cycle,
    /// Page reads (swap-ins, synchronous).
    pub reads: Counter,
    /// Page writes (swap-outs, asynchronous).
    pub writes: Counter,
}

impl SsdModel {
    /// A synchronous page read (major fault): returns the stall the
    /// faulting task observes, including any device queueing.
    pub fn read_page(&mut self, now: Cycle) -> Cycle {
        self.reads.inc();
        let start = now.max(self.next_free);
        self.next_free = start + SERVICE_INTERVAL;
        (start + PAGE_LATENCY) - now
    }

    /// An asynchronous page write (swap-out): consumes device throughput
    /// but does not stall the caller.
    pub fn write_page(&mut self, now: Cycle) {
        self.writes.inc();
        let start = now.max(self.next_free);
        self.next_free = start + SERVICE_INTERVAL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_fault_costs_base_latency() {
        let mut ssd = SsdModel::default();
        assert_eq!(ssd.read_page(1_000_000), 100_000);
        assert_eq!(ssd.reads.value(), 1);
    }

    #[test]
    fn queued_faults_stack_up() {
        let mut ssd = SsdModel::default();
        let first = ssd.read_page(0);
        let second = ssd.read_page(0);
        let third = ssd.read_page(0);
        assert_eq!(first, 100_000);
        assert_eq!(second, 122_000, "waits one service interval");
        assert_eq!(third, 144_000);
    }

    #[test]
    fn device_drains_over_time() {
        let mut ssd = SsdModel::default();
        ssd.read_page(0);
        // Long after the queue drained, latency is back to base.
        assert_eq!(ssd.read_page(10_000_000), 100_000);
    }

    #[test]
    fn writes_consume_throughput_without_stalling() {
        let mut ssd = SsdModel::default();
        for _ in 0..10 {
            ssd.write_page(0);
        }
        assert_eq!(ssd.writes.value(), 10);
        // A read behind 10 queued writes waits 10 service intervals.
        assert_eq!(ssd.read_page(0), 100_000 + 10 * 22_000);
    }
}
