//! Statistics collected by a [`crate::DramModel`].

use chameleon_simkit::metrics::{MetricSource, Registry};
use chameleon_simkit::stats::{Counter, RunningStat};
use serde::{Deserialize, Serialize};

/// Counters and aggregates for one DRAM device.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DramStats {
    /// Read requests serviced.
    pub reads: Counter,
    /// Write requests serviced.
    pub writes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Accesses to a precharged bank.
    pub row_closed: Counter,
    /// Row-buffer conflicts (open row had to be closed).
    pub row_conflicts: Counter,
    /// Total bytes moved over the data buses.
    pub bytes_transferred: Counter,
    /// Refresh operations applied.
    pub refreshes: Counter,
    /// Distribution of request service latency (CPU cycles, queue included).
    pub latency: RunningStat,
}

impl DramStats {
    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.reads.value() + self.writes.value();
        if total == 0 {
            0.0
        } else {
            self.row_hits.value() as f64 / total as f64
        }
    }
}

impl MetricSource for DramStats {
    fn publish(&self, prefix: &str, reg: &mut Registry) {
        reg.set_counter_from(&format!("{prefix}reads"), &self.reads);
        reg.set_counter_from(&format!("{prefix}writes"), &self.writes);
        reg.set_counter_from(&format!("{prefix}row_hits"), &self.row_hits);
        reg.set_counter_from(&format!("{prefix}row_closed"), &self.row_closed);
        reg.set_counter_from(&format!("{prefix}row_conflicts"), &self.row_conflicts);
        reg.set_counter_from(
            &format!("{prefix}bytes_transferred"),
            &self.bytes_transferred,
        );
        reg.set_counter_from(&format!("{prefix}refreshes"), &self.refreshes);
        reg.set_gauge(&format!("{prefix}row_hit_rate"), self.row_hit_rate());
        reg.set_stat(&format!("{prefix}latency"), &self.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(DramStats::default().row_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_counts_reads_and_writes() {
        let mut s = DramStats::default();
        s.reads.add(3);
        s.writes.add(1);
        s.row_hits.add(2);
        assert_eq!(s.row_hit_rate(), 0.5);
    }
}
