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
//!
//! The engine keeps run-long totals only (the `*_total()` accessors and
//! [`GuidanceEngine::tracked_pages`], published as `guidance.*`), counting
//! promotions and demotions from the moves a batch applied; the kernel
//! counts each applied hint in `os.hint_*`, and the metrics registry's
//! epoch deltas give the per-epoch view.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::frame::NodeId;
use crate::isa::IsaHook;
use crate::kernel::{OsKernel, Pid, PlacementHint};
use crate::numa::rank;
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
    /// keep promotion headroom) and promotes hot off-chip pages, adding
    /// the outcome to the run-long totals.
    pub fn end_epoch(&mut self, kernel: &mut OsKernel, hook: &mut dyn IsaHook, now: u64) {
        // Age the tracked stacked set one epoch, then mark every page
        // sampled this epoch fresh. Newly seen stacked pages (first-touch
        // allocations, foreign migrations) join the set.
        for idle in self.tracked.values_mut() {
            *idle += 1;
        }
        for &page in self.stacked_seen.keys() {
            self.tracked.insert(page, 0);
        }

        // Cold demotions first (oldest first), then hot promotions
        // (hottest first); both break ties by address.
        let cold = rank(
            &self.tracked,
            |idle| idle,
            COLD_EPOCHS,
            MAX_DEMOTIONS_PER_EPOCH,
        );
        let hot = rank(
            &self.offchip_heat,
            |(count, _)| count,
            HOT_THRESHOLD,
            MAX_PROMOTIONS_PER_EPOCH,
        );
        let hints: Vec<PlacementHint> = cold
            .iter()
            .map(|&(page, _)| PlacementHint {
                page,
                target: NodeId::Offchip,
            })
            .chain(hot.iter().map(|&(page, _)| PlacementHint {
                page,
                target: NodeId::Stacked,
            }))
            // INVARIANT: once-per-epoch hint batch, amortized off the hot path.
            .collect();
        let outcome = kernel.apply_hints(&hints, now, hook);

        // Re-point the tracked set at the pages' new frames, and attribute
        // each promotion to the tenant its heat was sampled for.
        for &(from, to, target) in &outcome.applied {
            match target {
                NodeId::Offchip => {
                    self.tracked.remove(&from);
                    self.demoted_total += 1;
                }
                NodeId::Stacked => {
                    self.tracked.insert(to, 0);
                    self.promoted_total += 1;
                    let (_, pid) = self.offchip_heat[&from];
                    self.tenants.entry(pid).or_default().promoted += 1;
                }
            }
        }
        self.enomem_total += outcome.enomem;
        self.offchip_heat.clear();
        self.stacked_seen.clear();
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
        g.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(os.stats().hint_promotions.value(), 8);
        assert_eq!(os.stats().hint_demotions.value(), 0);
        assert_eq!(g.promoted_total(), 8);
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
        g.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(os.stats().hint_promotions.value(), 1);
        assert_eq!(g.tracked_pages(), 1);
        // COLD_EPOCHS silent epochs: the page ages out and is demoted.
        for now in 1..u64::from(COLD_EPOCHS) {
            g.end_epoch(&mut os, &mut NullHook, now);
            let demoted = os.stats().hint_demotions.value();
            assert_eq!(demoted, 0, "not cold yet after {now} epochs");
        }
        g.end_epoch(&mut os, &mut NullHook, COLD_EPOCHS.into());
        let demoted = os.stats().hint_demotions.value();
        assert_eq!(demoted, 1, "cold after {COLD_EPOCHS} epochs");
        assert_eq!(g.demoted_total(), 1);
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
        g.end_epoch(&mut os, &mut NullHook, 0);
        assert_eq!(g.samples_total(), 25, "one in SAMPLE_PERIOD sampled");
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
        g.end_epoch(&mut os, &mut NullHook, 0);
        let enomem = os.stats().hint_enomem.value();
        assert!(enomem > 0, "stacked node must fill");
        assert_eq!(os.stats().hint_promotions.value(), (2 << 20) / PAGE_SIZE);
        assert_eq!(g.enomem_total(), enomem);
    }
}
