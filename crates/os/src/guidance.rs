//! Online application guidance: a sampling profiler that classifies pages
//! hot/cold per tenant each epoch and feeds placement hints to the kernel.
//!
//! Models the software tier of Olson et al., *Online Application Guidance
//! for Heterogeneous Memory Systems*: instead of the kernel's own
//! AutoNUMA heuristic (remote/local ratio, promote-only), a user-level
//! profiler samples one in `SAMPLE_PERIOD` DRAM-bound accesses, ranks
//! off-chip pages by sampled heat, and each epoch issues *two-way*
//! placement hints — promote the hottest off-chip pages into the stacked
//! node and demote stacked pages that have gone cold, keeping promotion
//! headroom instead of running into `-ENOMEM` like AutoNUMA does in
//! Figure 2c. Everything is deterministic: sampling is a simple modular
//! counter (no RNG), and all rankings break ties by address.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::frame::NodeId;
use crate::isa::IsaHook;
use crate::kernel::{OsKernel, Pid, PlacementHint};
use crate::page_table::PAGE_SIZE;

/// Sample one in this many DRAM-bound accesses (1 would be every access).
const SAMPLE_PERIOD: u64 = 4;
/// Sampled accesses per epoch for an off-chip page to classify hot.
const HOT_THRESHOLD: u32 = 2;
/// Maximum pages promoted per epoch.
const MAX_PROMOTIONS_PER_EPOCH: usize = 2048;
/// Epochs a tracked stacked page may go unsampled before it classifies
/// cold and is demoted.
const COLD_EPOCHS: u32 = 2;
/// Maximum pages demoted per epoch.
const MAX_DEMOTIONS_PER_EPOCH: usize = 2048;

/// Per-tenant profile accumulated over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantProfile {
    /// Sampled DRAM-bound accesses attributed to this tenant.
    pub samples: u64,
    /// Pages of this tenant promoted to the stacked node.
    pub promoted: u64,
}

/// Per-epoch outcome of the guidance tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuidanceEpochReport {
    /// Off-chip pages that classified hot this epoch.
    pub hot_pages: u64,
    /// Tracked stacked pages that classified cold this epoch.
    pub cold_pages: u64,
    /// Pages promoted into the stacked node.
    pub promoted: u64,
    /// Pages demoted out of the stacked node.
    pub demoted: u64,
    /// Hints that failed with `-ENOMEM`.
    pub enomem: u64,
    /// Accesses sampled this epoch.
    pub sampled: u64,
}

/// The online guidance engine.
///
/// The system model feeds it every DRAM-bound access via
/// [`GuidanceEngine::record_access`]; the driver closes an epoch with
/// [`GuidanceEngine::end_epoch`], which applies placement hints through
/// the kernel's [`OsKernel::apply_hints`] API.
#[derive(Debug, Default)]
pub struct GuidanceEngine {
    /// Modular sampling counter (deterministic; no RNG).
    tick: u64,
    /// Sampled heat per off-chip page this epoch, with the owning tenant.
    /// `BTreeMap` so epoch-end iteration is address-ordered, never
    /// hash-ordered (bit-identical replay).
    offchip_heat: BTreeMap<u64, (u32, Pid)>,
    /// Stacked pages sampled this epoch.
    stacked_seen: BTreeMap<u64, u32>,
    /// Stacked pages under observation → epochs since last sampled.
    tracked: BTreeMap<u64, u32>,
    /// Per-tenant run-long profile.
    tenants: BTreeMap<Pid, TenantProfile>,
    sampled_this_epoch: u64,
    samples_total: u64,
    promoted_total: u64,
    demoted_total: u64,
    enomem_total: u64,
}

impl GuidanceEngine {
    /// Records one DRAM-bound access by tenant `pid` at physical address
    /// `paddr`. Only one in `SAMPLE_PERIOD` calls is actually sampled —
    /// the profiler's overhead model.
    pub fn record_access(&mut self, pid: Pid, paddr: u64, node: NodeId) {
        self.tick += 1;
        if !self.tick.is_multiple_of(SAMPLE_PERIOD) {
            return;
        }
        self.sampled_this_epoch += 1;
        self.samples_total += 1;
        self.tenants.entry(pid).or_default().samples += 1;
        let page = paddr & !(PAGE_SIZE - 1);
        match node {
            NodeId::Offchip => {
                let entry = self.offchip_heat.entry(page).or_insert((0, pid));
                entry.0 += 1;
            }
            NodeId::Stacked => {
                *self.stacked_seen.entry(page).or_insert(0) += 1;
            }
        }
    }

    /// Closes the epoch at cycle `now`: demotes cold stacked pages (to
    /// keep promotion headroom), promotes hot off-chip pages, and returns
    /// the epoch report.
    pub fn end_epoch(
        &mut self,
        kernel: &mut OsKernel,
        hook: &mut dyn IsaHook,
        now: u64,
    ) -> GuidanceEpochReport {
        // Age the tracked stacked set: any page sampled this epoch is
        // fresh; unsampled pages age one epoch. Newly seen stacked pages
        // (first-touch allocations, foreign migrations) join the set.
        for &page in self.stacked_seen.keys() {
            self.tracked.insert(page, 0);
        }
        for (_, idle) in self.tracked.iter_mut() {
            *idle += 1;
        }
        for &page in self.stacked_seen.keys() {
            if let Some(idle) = self.tracked.get_mut(&page) {
                *idle = 0;
            }
        }

        // Cold demotions first: address-ordered, oldest first.
        let mut cold: Vec<(u64, u32)> = self
            .tracked
            .iter()
            .filter(|&(_, &idle)| idle >= COLD_EPOCHS)
            .map(|(&p, &idle)| (p, idle))
            // INVARIANT: end_epoch runs once per guidance epoch, not per
            // access — candidate staging here is amortized off the hot path.
            .collect();
        cold.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cold.truncate(MAX_DEMOTIONS_PER_EPOCH);

        // Hot promotions: hottest first, ties by address.
        let mut hot: Vec<(u64, u32, Pid)> = self
            .offchip_heat
            .iter()
            .filter(|&(_, &(c, _))| c >= HOT_THRESHOLD)
            .map(|(&p, &(c, pid))| (p, c, pid))
            // INVARIANT: once-per-epoch staging, amortized off the hot path.
            .collect();
        hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(MAX_PROMOTIONS_PER_EPOCH);

        let hints: Vec<PlacementHint> = cold
            .iter()
            .map(|&(page, _)| PlacementHint {
                page,
                target: NodeId::Offchip,
            })
            .chain(hot.iter().map(|&(page, _, _)| PlacementHint {
                page,
                target: NodeId::Stacked,
            }))
            // INVARIANT: once-per-epoch hint batch, amortized off the hot path.
            .collect();
        let outcome = kernel.apply_hints(&hints, now, hook);

        // Re-point the tracked set at the pages' new frames.
        for (from, to, target) in &outcome.applied {
            match target {
                NodeId::Offchip => {
                    self.tracked.remove(from);
                    let _ = to;
                }
                NodeId::Stacked => {
                    self.tracked.insert(*to, 0);
                }
            }
        }
        // Attribute promotions to their tenants.
        let promoted_pages: BTreeMap<u64, ()> = outcome
            .applied
            .iter()
            .filter(|(_, _, t)| *t == NodeId::Stacked)
            .map(|(from, _, _)| (*from, ()))
            // INVARIANT: once-per-epoch attribution, amortized off the hot path.
            .collect();
        for &(page, _, pid) in &hot {
            if promoted_pages.contains_key(&page) {
                self.tenants.entry(pid).or_default().promoted += 1;
            }
        }

        let report = GuidanceEpochReport {
            hot_pages: hot.len() as u64,
            cold_pages: cold.len() as u64,
            promoted: outcome.promoted,
            demoted: outcome.demoted,
            enomem: outcome.enomem,
            sampled: self.sampled_this_epoch,
        };
        self.promoted_total += outcome.promoted;
        self.demoted_total += outcome.demoted;
        self.enomem_total += outcome.enomem;
        self.offchip_heat.clear();
        self.stacked_seen.clear();
        self.sampled_this_epoch = 0;
        report
    }

    /// Per-tenant profiles accumulated over the run.
    pub fn tenant_profiles(&self) -> &BTreeMap<Pid, TenantProfile> {
        &self.tenants
    }

    /// Total accesses sampled so far.
    pub fn samples_total(&self) -> u64 {
        self.samples_total
    }

    /// Total pages promoted so far.
    pub fn promoted_total(&self) -> u64 {
        self.promoted_total
    }

    /// Total pages demoted so far.
    pub fn demoted_total(&self) -> u64 {
        self.demoted_total
    }

    /// Total hint `-ENOMEM` failures so far.
    pub fn enomem_total(&self) -> u64 {
        self.enomem_total
    }

    /// Stacked pages currently under observation.
    pub fn tracked_pages(&self) -> u64 {
        self.tracked.len() as u64
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

    /// Records `SAMPLE_PERIOD * n` consecutive accesses to `paddr`, so
    /// the page gets exactly `n` samples.
    fn record_samples(g: &mut GuidanceEngine, pid: Pid, paddr: u64, node: NodeId, n: u64) {
        for _ in 0..SAMPLE_PERIOD * n {
            g.record_access(pid, paddr, node);
        }
    }

    #[test]
    fn promotes_hot_offchip_pages() {
        let mut os = kernel_slow_first();
        let mut g = GuidanceEngine::default();
        let pid = os.spawn(ByteSize::mib(1));
        for p in 0..8u64 {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            let node = os.memory_map().node_of(t.paddr);
            record_samples(&mut g, pid, t.paddr, node, 4);
        }
        let report = g.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(report.hot_pages, 8);
        assert_eq!(report.promoted, 8);
        assert_eq!(report.demoted, 0);
        for p in 0..8u64 {
            let pa = os.peek_translate(pid, p * PAGE_SIZE).unwrap();
            assert_eq!(os.memory_map().node_of(pa), NodeId::Stacked);
        }
        assert_eq!(g.tenant_profiles()[&pid].promoted, 8);
        assert_eq!(g.tracked_pages(), 8);
    }

    #[test]
    fn demotes_pages_gone_cold() {
        let mut os = kernel_slow_first();
        let mut g = GuidanceEngine::default();
        let pid = os.spawn(ByteSize::mib(1));
        let t = os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
        record_samples(&mut g, pid, t.paddr, NodeId::Offchip, 2);
        let r = g.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(r.promoted, 1);
        // COLD_EPOCHS silent epochs: the page ages out and is demoted.
        for now in 1..u64::from(COLD_EPOCHS) {
            let r = g.end_epoch(&mut os, &mut NullHook, now);
            assert_eq!(r.demoted, 0, "not cold yet after {now} epochs");
        }
        let r = g.end_epoch(&mut os, &mut NullHook, COLD_EPOCHS.into());
        assert_eq!(r.demoted, 1, "cold after {COLD_EPOCHS} epochs");
        let pa = os.peek_translate(pid, 0).unwrap();
        assert_eq!(os.memory_map().node_of(pa), NodeId::Offchip);
        assert_eq!(g.tracked_pages(), 0);
    }

    #[test]
    fn sampling_period_thins_observations() {
        let mut os = kernel_slow_first();
        let mut g = GuidanceEngine::default();
        let pid = os.spawn(ByteSize::mib(1));
        for i in 0..25 * SAMPLE_PERIOD {
            g.record_access(pid, (i % 10) * PAGE_SIZE, NodeId::Offchip);
        }
        let r = g.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(r.sampled, 25, "one in SAMPLE_PERIOD sampled");
        assert_eq!(g.samples_total(), 25);
    }

    #[test]
    fn enomem_counted_when_stacked_full() {
        let mut os = kernel_slow_first();
        let mut g = GuidanceEngine::default();
        // 4 MiB of hot pages cannot fit the 2 MiB stacked node; the 1,024
        // pages are within MAX_PROMOTIONS_PER_EPOCH, so only the node's
        // capacity stops the promotions.
        let pid = os.spawn(ByteSize::mib(4));
        for p in 0..(4 << 20) / PAGE_SIZE {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            let node = os.memory_map().node_of(t.paddr);
            record_samples(&mut g, pid, t.paddr, node, 2);
        }
        let r = g.end_epoch(&mut os, &mut NullHook, 0);
        assert!(r.enomem > 0, "stacked node must fill");
        assert_eq!(r.promoted, (2 << 20) / PAGE_SIZE);
        assert_eq!(g.enomem_total(), r.enomem);
    }
}
