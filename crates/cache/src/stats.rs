//! Cache statistics.

use chameleon_simkit::metrics::{MetricSource, Registry};
use chameleon_simkit::stats::Counter;
use serde::{Deserialize, Serialize};

use crate::AccessKind;

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Load references.
    pub reads: Counter,
    /// Store references.
    pub writes: Counter,
    /// References that hit.
    pub hits: Counter,
    /// References that missed.
    pub misses: Counter,
    /// Valid lines displaced.
    pub evictions: Counter,
    /// Dirty lines displaced (traffic to the next level).
    pub writebacks: Counter,
}

impl CacheStats {
    /// Records one reference.
    pub fn record(&mut self, kind: AccessKind, hit: bool) {
        match kind {
            AccessKind::Read => self.reads.inc(),
            AccessKind::Write => self.writes.inc(),
        }
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }

    /// Total references.
    pub fn accesses(&self) -> u64 {
        self.reads.value() + self.writes.value()
    }

    /// Hit fraction; zero when no references were made.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits.value() as f64 / n as f64
        }
    }

    /// Merges another cache's counters into this one (per-core roll-ups).
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.hits.merge(&other.hits);
        self.misses.merge(&other.misses);
        self.evictions.merge(&other.evictions);
        self.writebacks.merge(&other.writebacks);
    }
}

impl MetricSource for CacheStats {
    fn publish(&self, prefix: &str, reg: &mut Registry) {
        reg.set_counter_from(&format!("{prefix}reads"), &self.reads);
        reg.set_counter_from(&format!("{prefix}writes"), &self.writes);
        reg.set_counter_from(&format!("{prefix}hits"), &self.hits);
        reg.set_counter_from(&format!("{prefix}misses"), &self.misses);
        reg.set_counter_from(&format!("{prefix}evictions"), &self.evictions);
        reg.set_counter_from(&format!("{prefix}writebacks"), &self.writebacks);
        reg.set_gauge(&format!("{prefix}hit_rate"), self.hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_partitions() {
        let mut s = CacheStats::default();
        s.record(AccessKind::Read, true);
        s.record(AccessKind::Write, false);
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.hits.value(), 1);
        assert_eq!(s.misses.value(), 1);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
