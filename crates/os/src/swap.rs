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
use serde::{Deserialize, Serialize};

/// SSD parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Device latency for one 4KB page transfer, in CPU cycles
    /// (Table I: 100K cycles ≈ 36 µs at 2.8GHz).
    pub page_latency: Cycle,
    /// Minimum cycles between successive page transfers (1 / throughput).
    /// A ~500MB/s device moves a 4KB page every ~8 µs ≈ 22K cycles.
    pub service_interval: Cycle,
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self {
            page_latency: 100_000,
            service_interval: 22_000,
        }
    }
}

/// A single-queue SSD: transfers serialise on the device.
#[derive(Debug, Clone)]
pub struct SsdModel {
    cfg: SsdConfig,
    /// Cycle at which the device can accept the next transfer.
    next_free: Cycle,
    /// Page reads (swap-ins, synchronous).
    pub reads: Counter,
    /// Page writes (swap-outs, asynchronous).
    pub writes: Counter,
}

impl SsdModel {
    /// Builds an idle device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn new(cfg: SsdConfig) -> Self {
        assert!(cfg.page_latency > 0, "page latency must be positive");
        assert!(
            cfg.service_interval > 0,
            "service interval must be positive"
        );
        Self {
            cfg,
            next_free: 0,
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// A synchronous page read (major fault): returns the stall the
    /// faulting task observes, including any device queueing.
    pub fn read_page(&mut self, now: Cycle) -> Cycle {
        self.reads.inc();
        let start = now.max(self.next_free);
        self.next_free = start + self.cfg.service_interval;
        (start + self.cfg.page_latency) - now
    }

    /// An asynchronous page write (swap-out): consumes device throughput
    /// but does not stall the caller.
    pub fn write_page(&mut self, now: Cycle) {
        self.writes.inc();
        let start = now.max(self.next_free);
        self.next_free = start + self.cfg.service_interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_fault_costs_base_latency() {
        let mut ssd = SsdModel::new(SsdConfig::default());
        assert_eq!(ssd.read_page(1_000_000), 100_000);
        assert_eq!(ssd.reads.value(), 1);
    }

    #[test]
    fn queued_faults_stack_up() {
        let mut ssd = SsdModel::new(SsdConfig::default());
        let first = ssd.read_page(0);
        let second = ssd.read_page(0);
        let third = ssd.read_page(0);
        assert_eq!(first, 100_000);
        assert_eq!(second, 122_000, "waits one service interval");
        assert_eq!(third, 144_000);
    }

    #[test]
    fn device_drains_over_time() {
        let mut ssd = SsdModel::new(SsdConfig::default());
        ssd.read_page(0);
        // Long after the queue drained, latency is back to base.
        assert_eq!(ssd.read_page(10_000_000), 100_000);
    }

    #[test]
    fn writes_consume_throughput_without_stalling() {
        let mut ssd = SsdModel::new(SsdConfig::default());
        for _ in 0..10 {
            ssd.write_page(0);
        }
        assert_eq!(ssd.writes.value(), 10);
        // A read behind 10 queued writes waits 10 service intervals.
        assert_eq!(ssd.read_page(0), 100_000 + 10 * 22_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_latency_rejected() {
        SsdModel::new(SsdConfig {
            page_latency: 0,
            ..SsdConfig::default()
        });
    }
}
