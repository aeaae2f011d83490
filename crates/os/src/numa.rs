//! Linux Automatic NUMA Balancing (AutoNUMA) model.
//!
//! Reproduces the mechanism of Section II-B2 / III-A2 of the paper on the
//! single-socket heterogeneous system: the kernel samples accesses (page
//! poisoning), computes the remote-to-local ratio per scan epoch, and
//! migrates hot *remote* (off-chip) pages into the stacked node while free
//! space lasts; migrations fail with `-ENOMEM` once the stacked node is
//! full, which is exactly the hit-rate collapse Figure 2c shows.
//!
//! The `numa_period_threshold` knob follows the paper's observation that a
//! *higher* threshold migrates misplaced pages *more rapidly*: migration
//! triggers once the sampled remote fraction exceeds `1 - threshold`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::frame::NodeId;
use crate::isa::IsaHook;
use crate::kernel::OsKernel;
use crate::page_table::PAGE_SIZE;

/// Maximum pages migrated per epoch (the scan batch size).
const MAX_MIGRATIONS_PER_EPOCH: usize = 4096;
/// Minimum sampled accesses before a remote page is considered hot.
const MIN_HOTNESS: u32 = 2;

/// Per-epoch outcome, the series Figure 2c plots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Pages migrated into the stacked node this epoch.
    pub migrated: u64,
    /// Migration attempts that failed with `-ENOMEM`.
    pub enomem: u64,
    /// Fraction of sampled accesses that were remote (off-chip).
    pub remote_ratio: f64,
    /// Stacked-DRAM hit rate observed this epoch.
    pub stacked_hit_rate: f64,
}

/// The AutoNUMA balancing engine.
///
/// The system model feeds it every memory access via
/// [`AutoNuma::record_access`]; the driver closes an epoch with
/// [`AutoNuma::end_epoch`], which performs migrations through the kernel.
#[derive(Debug)]
pub struct AutoNuma {
    /// `numa_period_threshold` (0.7 / 0.8 / 0.9 in Figure 2b).
    threshold: f64,
    /// Sampled access counts for off-chip pages this epoch. A `BTreeMap`
    /// so that epoch-end iteration is address-ordered, never hash-ordered
    /// (the hotness sort below breaks ties by address, and bit-identical
    /// replay must not depend on map iteration order).
    remote_pages: BTreeMap<u64, u32>,
    local_accesses: u64,
    remote_accesses: u64,
    reports: Vec<EpochReport>,
}

impl AutoNuma {
    /// Creates a balancer with the given `numa_period_threshold`. A
    /// threshold of 1 migrates whenever any sampled access is remote.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0,1], got {threshold}"
        );
        Self {
            threshold,
            remote_pages: BTreeMap::new(),
            local_accesses: 0,
            remote_accesses: 0,
            reports: Vec::new(),
        }
    }

    /// Records one sampled memory access at physical address `paddr`.
    pub fn record_access(&mut self, paddr: u64, node: NodeId) {
        match node {
            NodeId::Stacked => self.local_accesses += 1,
            NodeId::Offchip => {
                self.remote_accesses += 1;
                *self
                    .remote_pages
                    .entry(paddr & !(PAGE_SIZE - 1))
                    .or_insert(0) += 1;
            }
        }
    }

    /// Closes the current scan epoch at cycle `now`: decides whether to
    /// migrate, performs migrations through the kernel (stopping at
    /// `-ENOMEM`), and returns the epoch report.
    pub fn end_epoch(
        &mut self,
        kernel: &mut OsKernel,
        hook: &mut dyn IsaHook,
        now: u64,
    ) -> EpochReport {
        let total = self.local_accesses + self.remote_accesses;
        let remote_ratio = if total == 0 {
            0.0
        } else {
            self.remote_accesses as f64 / total as f64
        };
        let hit_rate = if total == 0 {
            0.0
        } else {
            self.local_accesses as f64 / total as f64
        };

        let mut migrated = 0;
        let mut enomem = 0;
        if remote_ratio > 1.0 - self.threshold {
            // Hottest remote pages first.
            let mut hot: Vec<(u64, u32)> = self
                .remote_pages
                .iter()
                .filter(|&(_, &c)| c >= MIN_HOTNESS)
                .map(|(&p, &c)| (p, c))
                // INVARIANT: once-per-epoch staging, amortized off the hot path.
                .collect();
            hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (page, _) in hot.into_iter().take(MAX_MIGRATIONS_PER_EPOCH) {
                match kernel.migrate_page(page, NodeId::Stacked, now, hook) {
                    Ok(_) => migrated += 1,
                    Err(crate::kernel::OsError::MigrationEnomem) => {
                        enomem += 1;
                        // The node is full; later migrations fail too.
                        break;
                    }
                    Err(crate::kernel::OsError::NotMapped(_)) => continue,
                    // INVARIANT: migrate_page only returns MigrationEnomem or
                    // NotMapped; any other variant is a kernel-model bug.
                    Err(e) => panic!("unexpected migration error: {e}"),
                }
            }
        }

        let report = EpochReport {
            migrated,
            enomem,
            remote_ratio,
            stacked_hit_rate: hit_rate,
        };
        self.reports.push(report);
        self.remote_pages.clear();
        self.local_accesses = 0;
        self.remote_accesses = 0;
        report
    }

    /// All epoch reports so far (the Figure 2c timeline).
    pub fn reports(&self) -> &[EpochReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{MemoryMap, NodePreference};
    use crate::isa::NullHook;
    use crate::kernel::{OsConfig, OsKernel};
    use chameleon_simkit::mem::ByteSize;

    fn kernel_slow_first() -> OsKernel {
        OsKernel::new(
            OsConfig {
                preference: NodePreference::SlowFirst,
                ..OsConfig::default()
            },
            MemoryMap::new(ByteSize::mib(2), ByteSize::mib(8)),
        )
    }

    #[test]
    fn migrates_hot_remote_pages() {
        let mut os = kernel_slow_first();
        let mut numa = AutoNuma::new(0.9);
        let pid = os.spawn(ByteSize::mib(1));
        // Fault in 16 pages (land off-chip under SlowFirst) and hammer them.
        for p in 0..16u64 {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            for _ in 0..10 {
                numa.record_access(t.paddr, os.memory_map().node_of(t.paddr));
            }
        }
        let report = numa.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(report.migrated, 16);
        assert_eq!(report.stacked_hit_rate, 0.0);
        assert!((report.remote_ratio - 1.0).abs() < 1e-12);
        // All 16 pages now translate into the stacked node.
        for p in 0..16u64 {
            let pa = os.peek_translate(pid, p * PAGE_SIZE).unwrap();
            assert_eq!(os.memory_map().node_of(pa), NodeId::Stacked);
        }
    }

    #[test]
    fn stops_at_enomem_when_stacked_full() {
        let mut os = kernel_slow_first();
        let mut numa = AutoNuma::new(0.9);
        // Footprint bigger than the 2MiB stacked node.
        let pid = os.spawn(ByteSize::mib(4));
        for p in 0..(4 << 20) / PAGE_SIZE {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            numa.record_access(t.paddr, os.memory_map().node_of(t.paddr));
            numa.record_access(t.paddr, os.memory_map().node_of(t.paddr));
        }
        let report = numa.end_epoch(&mut os, &mut NullHook, 0);
        assert!(report.enomem > 0, "stacked node must fill up");
        assert_eq!(
            report.migrated,
            (2 << 20) / PAGE_SIZE,
            "exactly the stacked capacity"
        );
    }

    #[test]
    fn below_trigger_ratio_no_migration() {
        let mut os = kernel_slow_first();
        // threshold 0.9 -> trigger when remote ratio > 0.1.
        let mut numa = AutoNuma::new(0.9);
        let pid = os.spawn(ByteSize::mib(1));
        let t = os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
        // 5% remote traffic.
        for _ in 0..95 {
            numa.record_access(0, NodeId::Stacked);
        }
        for _ in 0..5 {
            numa.record_access(t.paddr, NodeId::Offchip);
        }
        let report = numa.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(report.migrated, 0);
        assert!((report.stacked_hit_rate - 0.95).abs() < 1e-12);
    }

    #[test]
    fn lower_threshold_is_less_eager() {
        // With threshold 0.7, a 25% remote ratio does not trigger; with
        // 0.9 it does.
        for (threshold, expect_migrations) in [(0.7, false), (0.9, true)] {
            let mut os = kernel_slow_first();
            let mut numa = AutoNuma::new(threshold);
            let pid = os.spawn(ByteSize::mib(1));
            let t = os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
            for _ in 0..75 {
                numa.record_access(0, NodeId::Stacked);
            }
            for _ in 0..25 {
                numa.record_access(t.paddr, NodeId::Offchip);
            }
            let report = numa.end_epoch(&mut os, &mut NullHook, 0);
            assert_eq!(
                report.migrated > 0,
                expect_migrations,
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn epoch_reports_record_each_epochs_hit_rate() {
        let mut os = kernel_slow_first();
        let mut numa = AutoNuma::new(0.9);
        numa.record_access(0, NodeId::Stacked);
        numa.end_epoch(&mut os, &mut NullHook, 0);
        numa.record_access(1 << 22, NodeId::Offchip);
        numa.end_epoch(&mut os, &mut NullHook, 0);
        let rates: Vec<f64> = numa.reports().iter().map(|r| r.stacked_hit_rate).collect();
        assert_eq!(rates, [1.0, 0.0]);
    }

    #[test]
    fn bad_threshold_rejected() {
        for threshold in [0.0, 1.5] {
            let err = std::panic::catch_unwind(|| AutoNuma::new(threshold))
                .expect_err("out-of-range threshold must be rejected");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("threshold"), "{threshold}: {msg}");
        }
    }

    #[test]
    fn full_threshold_migrates_on_any_remote_access() {
        // Threshold 1: a 1% remote ratio already triggers migration.
        let mut os = kernel_slow_first();
        let mut numa = AutoNuma::new(1.0);
        let pid = os.spawn(ByteSize::mib(1));
        let t = os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
        for _ in 0..198 {
            numa.record_access(0, NodeId::Stacked);
        }
        for _ in 0..2 {
            numa.record_access(t.paddr, NodeId::Offchip);
        }
        let report = numa.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(report.migrated, 1);
    }
}
