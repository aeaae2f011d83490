//! The segment-restricted remapping policy behind PoM, CAMEO, Chameleon,
//! Chameleon-Opt and Polymorphic Memory.
//!
//! All five architectures share the SRRT and the swap datapath; they
//! differ in (a) whether demand traffic triggers competing-counter swaps
//! and (b) how `ISA-Alloc`/`ISA-Free` drive cache/PoM mode transitions.
//! [`Flavor`] captures those differences; the transition logic follows the
//! flowcharts of Figures 8, 10, 12 and 14 of the paper.

use chameleon_dram::MemOp;
use chameleon_os::isa::IsaHook;
use chameleon_simkit::metrics::{EventKind, EventTrace, Registry};
use chameleon_simkit::Cycle;

use crate::policy::HmaPolicy;
use crate::srrt::{Mode, SegmentGroupTable, SrrtEntry};
use crate::{HmaConfig, HmaDevices, HmaStats, ModeDistribution, SegmentGeometry};

/// Which architecture a [`RemapPolicy`] behaves as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Sim et al. PoM baseline (MICRO'14): hot off-chip segments are
    /// swapped into the stacked slot of their group under a
    /// competing-counter policy. Free-space agnostic (the paper's
    /// criticism in Section III-E): `ISA-Alloc`/`ISA-Free` only update
    /// the ABV, never reconfigure. Over
    /// [`HmaConfig::with_cameo_segments`] (64-byte segments) this is the
    /// CAMEO-style line-granularity organisation.
    Pom,
    /// The paper's contribution. Groups whose stacked segment is OS-free
    /// operate as a hardware-managed cache (no swap threshold, no
    /// capacity loss); fully allocated groups operate as PoM.
    /// `ISA-Alloc`/`ISA-Free` drive the transitions (Figures 8–11).
    /// `opt` selects Chameleon-Opt, which also remaps allocated stacked
    /// segments into free off-chip segments so that *any* free space in a
    /// group becomes stacked cache space (Figures 12–14).
    Chameleon {
        /// Chameleon-Opt's proactive remapping.
        opt: bool,
    },
    /// Chung et al. Polymorphic Memory (patent, Figure 22): OS-free
    /// stacked space caches exactly like basic Chameleon, but allocated
    /// data is never hot-swapped, so fully allocated groups behave like a
    /// static NUMA mapping.
    Polymorphic,
}

impl Flavor {
    fn demand_swaps(self) -> bool {
        !matches!(self, Flavor::Polymorphic)
    }

    fn reconfigures(self) -> bool {
        !matches!(self, Flavor::Pom)
    }

    fn opt(self) -> bool {
        matches!(self, Flavor::Chameleon { opt: true })
    }
}

/// The SRRT remapping policy: one segment-restricted remapping table and
/// swap datapath, behaving as the [`Flavor`] it was built with.
///
/// # Example
///
/// ```
/// use chameleon_core::{policy::HmaPolicy, Flavor, HmaConfig, RemapPolicy};
/// use chameleon_os::isa::IsaHook;
///
/// let cfg = HmaConfig::scaled_laptop();
/// let mut pom = RemapPolicy::new(cfg.clone(), Flavor::Pom);
/// pom.access(0, false, 0);
/// assert_eq!(pom.stats().stacked_hits.value(), 1, "stacked addresses start resident");
///
/// let mut ch = RemapPolicy::new(cfg.clone(), Flavor::Chameleon { opt: false });
/// // Allocate one off-chip page; its group keeps caching because the
/// // stacked segment is still free.
/// let off_base = cfg.stacked.capacity.bytes();
/// ch.isa_alloc(off_base, 4096, 0);
/// ch.access(off_base, false, 100); // miss + fill
/// ch.access(off_base, false, 100_000_000); // stacked hit
/// assert_eq!(ch.stats().stacked_hits.value(), 1);
/// ```
#[derive(Debug)]
pub struct RemapPolicy {
    cfg: HmaConfig,
    geom: SegmentGeometry,
    table: SegmentGroupTable,
    devices: HmaDevices,
    stats: HmaStats,
    /// Ring buffer of discrete events (transitions, swaps, ISA calls,
    /// writebacks) for the metrics timeline.
    trace: EventTrace,
    flavor: Flavor,
}

impl RemapPolicy {
    /// Builds the policy. Reconfiguring flavors boot with every group in
    /// cache mode: nothing is allocated yet (the ABV is all-zeroes;
    /// Section V).
    pub fn new(cfg: HmaConfig, flavor: Flavor) -> Self {
        let geom = SegmentGeometry::new(cfg.stacked.capacity, cfg.offchip.capacity, cfg.segment);
        let mut table = SegmentGroupTable::new(geom.groups(), geom.slots_per_group());
        if flavor.reconfigures() {
            for g in 0..geom.groups() {
                table.entry_mut(g).set_mode(Mode::Cache);
            }
        }
        let devices = HmaDevices::new(&cfg);
        Self {
            cfg,
            geom,
            table,
            devices,
            stats: HmaStats::default(),
            trace: EventTrace::new(Registry::TRACE_CAPACITY),
            flavor,
        }
    }

    /// Read access to the SRRT (diagnostics, tests, mode census).
    pub fn srrt(&self) -> &SegmentGroupTable {
        &self.table
    }
}

impl IsaHook for RemapPolicy {
    /// `ISA-Alloc` for a byte range (Algorithm 1 invokes this once per
    /// covered segment).
    fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
        self.for_each_segment(addr, len, |m, group, slot| {
            m.stats.isa_allocs.inc();
            m.trace.push(now, EventKind::IsaAlloc, group);
            m.isa_alloc_segment(group, slot, now);
        });
    }

    /// `ISA-Free` for a byte range (Algorithm 2).
    fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
        self.for_each_segment(addr, len, |m, group, slot| {
            m.stats.isa_frees.inc();
            m.trace.push(now, EventKind::IsaFree, group);
            m.isa_free_segment(group, slot, now);
        });
    }
}

impl HmaPolicy for RemapPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        let loc = self.geom.locate(paddr);
        self.stats.demand_accesses.inc();
        let mut e = *self.table.entry(loc.group);

        let op = if write { MemOp::Write } else { MemOp::Read };
        let latency = match e.mode() {
            Mode::Pom => self.access_pom(&mut e, loc.group, loc.slot, loc.offset, op, now),
            Mode::Cache => self.access_cache(&mut e, loc.group, loc.slot, loc.offset, op, now),
        };
        *self.table.entry_mut(loc.group) = e;
        self.stats.access_latency.record(latency as f64);
        latency
    }

    /// A posted dirty-line writeback from the LLC: routed to wherever the
    /// line's data currently lives, with no fill/promotion side effects.
    fn writeback(&mut self, paddr: u64, now: Cycle) {
        let loc = self.geom.locate(paddr);
        let e = *self.table.entry(loc.group);
        self.stats.llc_writebacks.inc();
        let target = match e.mode() {
            Mode::Cache if e.cached() == Some(loc.slot) && !e.is_busy(now) => {
                // The line's segment is cached: write the stacked copy and
                // mark it dirty so eviction writes it back.
                let mut e2 = e;
                e2.mark_dirty();
                *self.table.entry_mut(loc.group) = e2;
                0
            }
            _ => e.physical_of(loc.slot),
        };
        self.device_access(loc.group, target, loc.offset, MemOp::Write, now);
    }

    fn stats(&self) -> &HmaStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HmaStats::default();
        self.trace.clear();
        self.devices.stacked.reset_stats();
        self.devices.offchip.reset_stats();
    }

    /// Completes all in-flight transfers and quiesces the devices: used
    /// between a warm-up/pre-fault phase and measurement so setup traffic
    /// does not pollute timed results. SRRT state (modes, remappings,
    /// cached contents) is preserved.
    fn settle(&mut self) {
        for g in 0..self.geom.groups() {
            self.table.entry_mut(g).clear_busy();
        }
        self.devices = HmaDevices::new(&self.cfg);
    }

    fn devices(&self) -> &HmaDevices {
        &self.devices
    }

    fn mode_distribution(&self) -> ModeDistribution {
        let cache = self.table.cache_mode_groups();
        ModeDistribution {
            cache_groups: cache,
            pom_groups: self.table.len() as u64 - cache,
        }
    }

    /// One full segment per PoM-mode group (the stacked physical slot is
    /// part of memory), plus one per cache-mode group holding a cached
    /// copy.
    fn stacked_residency(&self) -> (u64, u64) {
        let seg = self.geom.segment_bytes();
        let resident = self
            .table
            .iter()
            .map(|e| match e.mode() {
                Mode::Pom => seg,
                Mode::Cache if e.cached().is_some() => seg,
                Mode::Cache => 0,
            })
            .sum();
        (resident, self.geom.stacked_bytes())
    }

    fn events(&self) -> Option<&EventTrace> {
        Some(&self.trace)
    }
}

impl RemapPolicy {
    fn access_pom(
        &mut self,
        e: &mut SrrtEntry,
        group: u64,
        slot: u8,
        offset: u64,
        op: MemOp,
        now: Cycle,
    ) -> Cycle {
        // A segment still in transit is serviced from the source memory's
        // swap buffers (Section V-D1): its data is physically at its
        // pre-swap location, so charge an access there.
        if e.in_transit(slot, now) {
            let source = e.pre_transit_physical(slot);
            if source == 0 {
                self.stats.stacked_hits.inc();
            } else {
                self.stats.buffer_hits.inc();
            }
            let latency = self.device_access(group, source, offset, op, now);
            self.stats.transit_latency.record(latency as f64);
            return latency;
        }

        let phys = e.physical_of(slot);
        let latency = self.device_access(group, phys, offset, op, now);
        if phys == 0 {
            self.stats.stacked_hits.inc();
            e.note_stacked_access();
        } else if self.flavor.demand_swaps()
            && e.note_offchip_access(slot, self.cfg.swap_threshold)
            && !e.is_busy(now)
        {
            // Promote the hot segment into the stacked slot (fast swap).
            let seg = self.cfg.segment.bytes() as u32;
            let stacked_addr = self.geom.slot_addr(group, 0);
            let off_addr = self.geom.offchip_rel(self.geom.slot_addr(group, phys));
            let done = self.devices.swap_segments(stacked_addr, off_addr, seg, now);
            let occupant = e.logical_in(0);
            e.swap_homes(slot, occupant);
            e.set_transit(slot, Some(occupant), done);
            self.stats.swaps.inc();
            self.trace.push(now, EventKind::Swap, group);
        }
        latency
    }

    fn access_cache(
        &mut self,
        e: &mut SrrtEntry,
        group: u64,
        slot: u8,
        offset: u64,
        op: MemOp,
        now: Cycle,
    ) -> Cycle {
        if !e.is_allocated(slot) {
            // A stale writeback (or speculative read) to a freed segment:
            // there is no live data to touch.
            self.stats.stale_accesses.inc();
            return self.cfg.buffer_latency;
        }
        if e.cached() == Some(slot) {
            if e.in_transit(slot, now) {
                // The fill is still streaming this segment in; serve from
                // its off-chip home via the source-side buffers.
                self.stats.buffer_hits.inc();
                let home = e.physical_of(slot);
                return self.device_access(group, home, offset, op, now);
            }
            // Stacked cache hit.
            let latency = self.device_access(group, 0, offset, op, now);
            if op == MemOp::Write {
                e.mark_dirty();
            }
            self.stats.stacked_hits.inc();
            return latency;
        }

        // Miss: serve the demand line from the segment's off-chip home.
        let home = e.physical_of(slot);
        debug_assert_ne!(home, 0, "cache-mode invariant: live homes are off-chip");
        let latency = self.device_access(group, home, offset, op, now);

        // Fill the whole segment into the stacked slot (no swap threshold
        // in cache mode — Section VI-B; a non-zero cache_fill_threshold
        // is the D1 ablation), unless the group's transfer engine is
        // still draining a previous fill.
        if e.is_busy(now) {
            return latency;
        }
        if self.cfg.cache_fill_threshold > 0
            && !e.note_offchip_access(slot, self.cfg.cache_fill_threshold)
        {
            return latency;
        }
        let seg = self.cfg.segment.bytes() as u32;
        let stacked_addr = self.geom.slot_addr(group, 0);
        let mut done = now;
        if let Some(victim) = e.cached() {
            if e.is_dirty() {
                // Victim writeback and new fill pipeline through separate
                // buffers; both proceed concurrently.
                let victim_home = self
                    .geom
                    .offchip_rel(self.geom.slot_addr(group, e.physical_of(victim)));
                done = self
                    .devices
                    .writeback_segment(stacked_addr, victim_home, seg, now);
                self.stats.writebacks.inc();
                self.trace.push(now, EventKind::Writeback, group);
            }
        }
        let home_addr = self.geom.offchip_rel(self.geom.slot_addr(group, home));
        done = done.max(self.devices.fill_segment(home_addr, stacked_addr, seg, now));
        e.set_cached(Some(slot));
        if op == MemOp::Write {
            e.mark_dirty();
        }
        e.set_transit(slot, None, done);
        self.stats.fills.inc();
        self.trace.push(now, EventKind::Fill, group);
        latency
    }

    fn device_access(&mut self, group: u64, phys: u8, offset: u64, op: MemOp, now: Cycle) -> Cycle {
        let line_off = offset & !63;
        if phys == 0 {
            let addr = self.geom.slot_addr(group, 0) + line_off;
            let l = self.devices.stacked.access(addr, 64, op, now).latency;
            self.stats.stacked_latency.record(l as f64);
            l
        } else {
            let addr = self.geom.offchip_rel(self.geom.slot_addr(group, phys)) + line_off;
            let l = self.devices.offchip.access(addr, 64, op, now).latency;
            self.stats.offchip_latency.record(l as f64);
            l
        }
    }

    fn for_each_segment(&mut self, addr: u64, len: u64, mut f: impl FnMut(&mut Self, u64, u8)) {
        assert!(len > 0, "empty ISA range");
        let seg = self.cfg.segment.bytes();
        let first = addr / seg;
        let last = (addr + len - 1) / seg;
        for s in first..=last {
            let loc = self.geom.locate(s * seg);
            f(self, loc.group, loc.slot);
        }
    }

    /// Figure 8 (Chameleon) / Figure 12 (Chameleon-Opt) ISA-Alloc
    /// transition for one segment.
    fn isa_alloc_segment(&mut self, group: u64, slot: u8, now: Cycle) {
        let mut e = *self.table.entry(group);
        if !self.flavor.reconfigures() {
            // PoM baseline is free-space agnostic: track ABV only.
            e.set_allocated(slot, true);
            *self.table.entry_mut(group) = e;
            return;
        }

        if self.flavor.opt() {
            self.isa_alloc_opt(&mut e, group, slot, now);
        } else {
            self.isa_alloc_basic(&mut e, group, slot, now);
        }
        *self.table.entry_mut(group) = e;
    }

    /// Figure 10 (Chameleon) / Figure 14 (Chameleon-Opt) ISA-Free
    /// transition for one segment.
    fn isa_free_segment(&mut self, group: u64, slot: u8, now: Cycle) {
        let mut e = *self.table.entry(group);
        if !self.flavor.reconfigures() {
            e.set_allocated(slot, false);
            *self.table.entry_mut(group) = e;
            return;
        }

        if self.flavor.opt() {
            self.isa_free_opt(&mut e, group, slot, now);
        } else {
            self.isa_free_basic(&mut e, group, slot, now);
        }
        *self.table.entry_mut(group) = e;
    }

    // --- Basic Chameleon (and Polymorphic) transitions -----------------

    fn isa_alloc_basic(&mut self, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        if slot == 0 && e.mode() == Mode::Cache {
            // Flow 1-2-3-{6,7}-8 of Figure 8: the stacked segment is being
            // allocated; drop the cached copy (writing it back if dirty)
            // and return the group to PoM mode.
            self.drop_cached(e, group, now);
            self.transition(e, group, Mode::Pom, now);
        }
        e.set_allocated(slot, true);
    }

    fn isa_free_basic(&mut self, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        e.set_allocated(slot, false);
        if slot != 0 {
            // Off-chip frees never reconfigure basic Chameleon (Figure 10
            // flow 1-2-4-5), but a cached copy of the freed segment must
            // be dropped (its data is dead; no writeback).
            if e.cached() == Some(slot) {
                e.set_cached(None);
            }
            return;
        }
        if e.mode() == Mode::Cache {
            return; // already reconfigured (defensive; not a paper flow)
        }
        let phys = e.physical_of(0);
        if phys != 0 {
            // Figure 11: the freed stacked-range segment currently lives
            // off-chip; proactively swap it back so the stacked slot is
            // available for caching. Only the displaced occupant's data
            // is live; the full swap moves both unless elided.
            let occupant = e.logical_in(0);
            let seg = self.cfg.segment.bytes() as u32;
            let stacked_addr = self.geom.slot_addr(group, 0);
            let off_addr = self.geom.offchip_rel(self.geom.slot_addr(group, phys));
            let done = if self.cfg.elide_dead_copy {
                self.devices
                    .writeback_segment(stacked_addr, off_addr, seg, now)
            } else {
                self.devices.swap_segments(stacked_addr, off_addr, seg, now)
            };
            e.swap_homes(0, occupant);
            e.set_transit(0, Some(occupant), done);
            self.stats.isa_swaps.inc();
            self.trace.push(now, EventKind::IsaSwap, group);
        }
        self.transition(e, group, Mode::Cache, now);
        e.set_cached(None);
    }

    // --- Chameleon-Opt transitions --------------------------------------

    fn isa_alloc_opt(&mut self, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        e.set_allocated(slot, true);
        if e.mode() != Mode::Cache {
            // Allocating into a PoM-mode group can only happen if the OS
            // allocated a segment the hardware never saw freed; just track
            // the ABV.
            return;
        }
        if e.physical_of(slot) == 0 {
            // The segment being allocated is homed in the stacked slot.
            if let Some(q) = e.free_logical_except(slot) {
                // Figure 13: proactively remap it to a free off-chip
                // segment so the stacked slot keeps backing the cache.
                // Both segments hold dead data, so only metadata must
                // change; the conservative hardware still performs a swap.
                let q_phys = e.physical_of(q);
                debug_assert_ne!(q_phys, 0, "free q must be homed off-chip");
                if !self.cfg.elide_dead_copy {
                    let seg = self.cfg.segment.bytes() as u32;
                    let stacked_addr = self.geom.slot_addr(group, 0);
                    let off_addr = self.geom.offchip_rel(self.geom.slot_addr(group, q_phys));
                    let done = self.devices.swap_segments(stacked_addr, off_addr, seg, now);
                    e.set_transit(slot, Some(q), done);
                }
                e.swap_homes(slot, q);
                self.stats.isa_swaps.inc();
                self.trace.push(now, EventKind::IsaSwap, group);
                // The stacked slot's cached copy was displaced by the
                // remap; drop it (writeback if dirty).
                self.drop_cached(e, group, now);
            } else {
                // No other free segment: the group can no longer cache.
                self.drop_cached(e, group, now);
                self.transition(e, group, Mode::Pom, now);
            }
        } else if e.all_allocated() {
            // Figure 12 box 10: every segment is now live.
            self.drop_cached(e, group, now);
            self.transition(e, group, Mode::Pom, now);
        }
    }

    fn isa_free_opt(&mut self, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        e.set_allocated(slot, false);
        if e.mode() == Mode::Cache {
            // Already caching; drop any copy of the freed segment (no
            // writeback needed — the data is dead).
            if e.cached() == Some(slot) {
                e.set_cached(None);
            }
            return;
        }
        // PoM -> cache (Figure 14): make sure the stacked physical slot is
        // backed by the freed segment so it can cache.
        let phys = e.physical_of(slot);
        if phys != 0 {
            let occupant = e.logical_in(0);
            let seg = self.cfg.segment.bytes() as u32;
            let stacked_addr = self.geom.slot_addr(group, 0);
            let off_addr = self.geom.offchip_rel(self.geom.slot_addr(group, phys));
            let done = if self.cfg.elide_dead_copy {
                self.devices
                    .writeback_segment(stacked_addr, off_addr, seg, now)
            } else {
                self.devices.swap_segments(stacked_addr, off_addr, seg, now)
            };
            e.swap_homes(slot, occupant);
            e.set_transit(slot, Some(occupant), done);
            self.stats.isa_swaps.inc();
            self.trace.push(now, EventKind::IsaSwap, group);
        }
        self.transition(e, group, Mode::Cache, now);
        e.set_cached(None);
    }

    // --- helpers ---------------------------------------------------------

    /// Drops the cached copy, writing it back to its home if dirty.
    fn drop_cached(&mut self, e: &mut SrrtEntry, group: u64, now: Cycle) {
        if let Some(victim) = e.cached() {
            if e.is_dirty() {
                let seg = self.cfg.segment.bytes() as u32;
                let stacked_addr = self.geom.slot_addr(group, 0);
                let victim_home = self
                    .geom
                    .offchip_rel(self.geom.slot_addr(group, e.physical_of(victim)));
                let done = self
                    .devices
                    .writeback_segment(stacked_addr, victim_home, seg, now);
                e.set_transit(victim, None, done);
                self.stats.writebacks.inc();
                self.trace.push(now, EventKind::Writeback, group);
            }
            e.set_cached(None);
        }
    }

    /// Switches a group's mode, applying the security clear of the
    /// stacked slot when configured (Section V-D2).
    fn transition(&mut self, e: &mut SrrtEntry, group: u64, mode: Mode, now: Cycle) {
        if e.mode() == mode {
            return;
        }
        if self.cfg.secure_clear {
            let seg = self.cfg.segment.bytes() as u32;
            let done = self
                .devices
                .clear_segment(true, self.geom.slot_addr(group, 0), seg, now);
            e.set_transit(e.logical_in(0), None, done);
            self.stats.clears.inc();
            self.trace.push(now, EventKind::Clear, group);
        }
        e.set_mode(mode);
        let kind = match mode {
            Mode::Cache => EventKind::ModeToCache,
            Mode::Pom => EventKind::ModeToPom,
        };
        self.trace.push(now, kind, group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simkit::mem::ByteSize;

    /// A small machine: 2MiB stacked + 10MiB off-chip, 2KiB segments ->
    /// 1024 groups of 6 slots.
    fn machine(flavor: Flavor) -> RemapPolicy {
        let mut cfg = HmaConfig::scaled_laptop();
        cfg.stacked.capacity = ByteSize::mib(2);
        cfg.offchip.capacity = ByteSize::mib(10);
        RemapPolicy::new(cfg, flavor)
    }

    fn seg() -> u64 {
        2048
    }

    /// Allocates every segment of every group.
    fn alloc_all(m: &mut RemapPolicy) {
        m.isa_alloc(0, m.geom.total_bytes(), 0);
    }

    #[test]
    fn pom_flavor_never_reconfigures() {
        let mut m = machine(Flavor::Pom);
        alloc_all(&mut m);
        m.isa_free(0, seg(), 0); // free a stacked segment
        assert_eq!(m.mode_distribution().cache_groups, 0);
    }

    #[test]
    fn pom_promotes_hot_offchip_segment() {
        let mut m = machine(Flavor::Pom);
        alloc_all(&mut m);
        // Hammer an off-chip segment in group 0 (slot 1).
        let paddr = m.geom.slot_addr(0, 1);
        let mut now = 0;
        let mut hit_before = m.stats.stacked_hits.value();
        assert_eq!(hit_before, 0);
        for _ in 0..m.cfg.swap_threshold + 1 {
            now += 10_000_000; // far apart so busy periods expire
            m.access(paddr, false, now);
        }
        assert_eq!(m.stats.swaps.value(), 1, "threshold reached -> one swap");
        // After the swap, accesses to that address hit the stacked device
        // (the threshold+1'th access in the loop already did).
        now += 10_000_000;
        m.access(paddr, false, now);
        hit_before = m.stats.stacked_hits.value();
        assert_eq!(hit_before, 2);
        // ... and the displaced stacked segment is now served off-chip.
        now += 10_000_000;
        m.access(m.geom.slot_addr(0, 0), false, now);
        assert_eq!(m.stats.stacked_hits.value(), 2);
    }

    #[test]
    fn chameleon_free_stacked_switches_to_cache_mode() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        assert_eq!(m.mode_distribution().cache_groups, 0);
        // Free group 3's stacked segment.
        m.isa_free(m.geom.slot_addr(3, 0), seg(), 0);
        assert_eq!(m.mode_distribution().cache_groups, 1);
        let e = m.table.entry(3);
        assert_eq!(e.mode(), Mode::Cache);
        assert!(!e.is_allocated(0));
        assert_eq!(e.physical_of(0), 0, "stacked slot backs the cache");
    }

    #[test]
    fn chameleon_offchip_free_does_not_reconfigure_basic() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(2, 4), seg(), 0);
        assert_eq!(m.mode_distribution().cache_groups, 0);
        assert!(!m.table.entry(2).is_allocated(4));
    }

    #[test]
    fn opt_any_free_switches_to_cache_mode() {
        let mut m = machine(Flavor::Chameleon { opt: true });
        alloc_all(&mut m);
        let swaps_before = m.stats.isa_swaps.value();
        m.isa_free(m.geom.slot_addr(2, 4), seg(), 0);
        assert_eq!(m.mode_distribution().cache_groups, 1);
        let e = m.table.entry(2);
        // The freed off-chip segment was proactively remapped into the
        // stacked physical slot so the group can cache.
        assert_eq!(e.physical_of(4), 0);
        assert_eq!(e.logical_in(0), 4);
        assert_eq!(m.stats.isa_swaps.value(), swaps_before + 1);
        assert!(e.check_permutation());
    }

    #[test]
    fn cache_fill_threshold_gates_fills() {
        let mut cfg = HmaConfig::scaled_laptop();
        cfg.stacked.capacity = ByteSize::mib(2);
        cfg.offchip.capacity = ByteSize::mib(10);
        cfg.cache_fill_threshold = 3;
        let mut m = RemapPolicy::new(cfg, Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 2);
        let mut now = 0;
        for k in 1..=3u64 {
            now += 10_000_000;
            m.access(paddr, false, now);
            let expected = u64::from(k == 3);
            assert_eq!(
                m.stats.fills.value(),
                expected,
                "fill only at the threshold ({k})"
            );
        }
        // After the fill drains, the segment hits in stacked DRAM.
        now += 10_000_000;
        m.access(paddr, false, now);
        assert_eq!(m.stats.stacked_hits.value(), 1);
    }

    #[test]
    fn cache_mode_fills_on_first_touch_and_hits_after() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 2);
        let l1 = m.access(paddr, false, 1_000_000);
        assert_eq!(m.stats.fills.value(), 1, "first touch fills, no threshold");
        assert_eq!(
            m.stats.stacked_hits.value(),
            0,
            "demand line came from off-chip"
        );
        // Wait out the fill, then re-access: stacked hit.
        let later = 1_000_000 + 10_000_000;
        let l2 = m.access(paddr, false, later);
        assert_eq!(m.stats.stacked_hits.value(), 1);
        assert!(l2 <= l1, "cache hit ({l2}) not slower than miss ({l1})");
    }

    #[test]
    fn cache_mode_dirty_eviction_writes_back() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let a = m.geom.slot_addr(0, 1);
        let b = m.geom.slot_addr(0, 2);
        let mut now = 1_000_000;
        m.access(a, true, now); // fill a, dirty
        now += 10_000_000;
        m.access(b, false, now); // evict a -> writeback, fill b
        assert_eq!(m.stats.writebacks.value(), 1);
        assert_eq!(m.stats.fills.value(), 2);
    }

    #[test]
    fn cache_mode_clean_eviction_is_silent() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let mut now = 1_000_000;
        m.access(m.geom.slot_addr(0, 1), false, now);
        now += 10_000_000;
        m.access(m.geom.slot_addr(0, 2), false, now);
        assert_eq!(m.stats.writebacks.value(), 0);
        assert_eq!(m.stats.fills.value(), 2);
    }

    #[test]
    fn realloc_returns_group_to_pom_with_writeback() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        let stacked = m.geom.slot_addr(0, 0);
        m.isa_free(stacked, seg(), 0);
        // Dirty the cache.
        m.access(m.geom.slot_addr(0, 1), true, 1_000_000);
        // Re-allocate the stacked segment: Figure 8 flow 6-8.
        m.isa_alloc(stacked, seg(), 20_000_000);
        let e = m.table.entry(0);
        assert_eq!(e.mode(), Mode::Pom);
        assert!(e.is_allocated(0));
        assert_eq!(e.cached(), None);
        assert_eq!(m.stats.writebacks.value(), 1, "dirty copy written back");
    }

    #[test]
    fn free_of_remapped_stacked_segment_swaps_back() {
        // Figure 11: promote an off-chip segment into the stacked slot,
        // then free the stacked-range segment.
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        let hot = m.geom.slot_addr(0, 1);
        let mut now = 0;
        for _ in 0..m.cfg.swap_threshold + 1 {
            now += 10_000_000;
            m.access(hot, false, now);
        }
        assert_eq!(m.table.entry(0).physical_of(1), 0, "slot 1 promoted");
        // Free the stacked-range segment (logical 0, now off-chip).
        now += 10_000_000;
        m.isa_free(m.geom.slot_addr(0, 0), seg(), now);
        let e = m.table.entry(0);
        assert_eq!(e.mode(), Mode::Cache);
        assert_eq!(e.physical_of(0), 0, "freed segment swapped back to stacked");
        assert_eq!(e.physical_of(1), 1, "occupant returned home");
        assert_eq!(m.stats.isa_swaps.value(), 1);
        assert!(e.check_permutation());
    }

    #[test]
    fn opt_alloc_of_stacked_home_proactively_remaps() {
        // Figure 13: group in cache mode via a free off-chip segment;
        // allocating the stacked-range segment keeps the group caching.
        let mut m = machine(Flavor::Chameleon { opt: true });
        alloc_all(&mut m);
        let stacked = m.geom.slot_addr(0, 0);
        let off4 = m.geom.slot_addr(0, 4);
        // Free both the stacked segment and an off-chip segment.
        m.isa_free(stacked, seg(), 0);
        m.isa_free(off4, seg(), 0);
        assert_eq!(m.table.entry(0).mode(), Mode::Cache);
        // Re-allocate the stacked segment: Opt must remap it to the free
        // off-chip slot and stay in cache mode.
        m.isa_alloc(stacked, seg(), 10_000_000);
        let e = m.table.entry(0);
        assert_eq!(e.mode(), Mode::Cache, "Opt keeps caching");
        assert!(e.is_allocated(0));
        assert_ne!(e.physical_of(0), 0, "allocated segment moved off-chip");
        assert_eq!(
            e.logical_in(0),
            4,
            "stacked slot backed by the free segment"
        );
        assert!(e.check_permutation());
    }

    #[test]
    fn opt_last_alloc_switches_to_pom() {
        let mut m = machine(Flavor::Chameleon { opt: true });
        alloc_all(&mut m);
        let off4 = m.geom.slot_addr(0, 4);
        m.isa_free(off4, seg(), 0);
        assert_eq!(m.table.entry(0).mode(), Mode::Cache);
        m.isa_alloc(off4, seg(), 10_000_000);
        let e = m.table.entry(0);
        assert_eq!(e.mode(), Mode::Pom, "no free segment left");
        assert!(e.all_allocated());
    }

    #[test]
    fn opt_caches_more_groups_than_basic() {
        // Free one off-chip segment per group: basic Chameleon gains no
        // cache groups, Opt converts every group.
        let mut basic = machine(Flavor::Chameleon { opt: false });
        let mut opt = machine(Flavor::Chameleon { opt: true });
        for m in [&mut basic, &mut opt] {
            alloc_all(m);
            for g in 0..m.geom.groups() {
                let addr = m.geom.slot_addr(g, 3);
                m.isa_free(addr, seg(), 0);
            }
        }
        assert_eq!(basic.mode_distribution().cache_groups, 0);
        assert_eq!(opt.mode_distribution().cache_groups, opt.geom.groups());
    }

    #[test]
    fn polymorphic_never_swaps_on_demand() {
        let mut m = machine(Flavor::Polymorphic);
        alloc_all(&mut m);
        let paddr = m.geom.slot_addr(0, 1);
        let mut now = 0;
        for _ in 0..100 {
            now += 10_000_000;
            m.access(paddr, false, now);
        }
        assert_eq!(m.stats.swaps.value(), 0);
        assert_eq!(m.stats.stacked_hits.value(), 0);
    }

    #[test]
    fn polymorphic_still_uses_free_stacked_space() {
        let mut m = machine(Flavor::Polymorphic);
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 1);
        m.access(paddr, false, 1_000_000);
        m.access(paddr, false, 50_000_000);
        assert_eq!(m.stats.fills.value(), 1);
        assert_eq!(m.stats.stacked_hits.value(), 1);
    }

    #[test]
    fn in_transit_access_served_from_buffer() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 2);
        m.access(paddr, false, 1_000_000); // triggers a fill
        let offchip_reads_before = m.devices.offchip.stats().reads.value();
        // Access again immediately: the fill is still in flight, so the
        // line is serviced from the segment's source (off-chip) side.
        m.access(paddr, false, 1_000_001);
        assert_eq!(m.stats.buffer_hits.value(), 1);
        assert_eq!(
            m.devices.offchip.stats().reads.value(),
            offchip_reads_before + 1,
            "in-transit service charges the source memory"
        );
        assert_eq!(m.stats.stacked_hits.value(), 0, "not yet a stacked hit");
        // Once the fill drains, the same line hits in stacked DRAM.
        m.access(paddr, false, 100_000_000);
        assert_eq!(m.stats.stacked_hits.value(), 1);
    }

    #[test]
    fn stale_access_to_freed_segment_is_harmless() {
        let mut m = machine(Flavor::Chameleon { opt: true });
        alloc_all(&mut m);
        m.settle(); // complete the boot-time remap traffic
        let addr = m.geom.slot_addr(0, 2);
        m.isa_free(addr, seg(), 0);
        m.settle();
        let lat = m.access(addr, true, 1_000_000);
        assert_eq!(lat, m.cfg.buffer_latency);
        assert_eq!(m.stats.stale_accesses.value(), 1);
    }

    #[test]
    fn secure_clear_charges_writes_on_transitions() {
        let mut cfg = HmaConfig::scaled_laptop();
        cfg.stacked.capacity = ByteSize::mib(2);
        cfg.offchip.capacity = ByteSize::mib(10);
        cfg.secure_clear = true;
        let mut m = RemapPolicy::new(cfg, Flavor::Chameleon { opt: false });
        alloc_all(&mut m); // boot-time cache->PoM transitions also clear
        let base = m.stats.clears.value();
        assert_eq!(base, m.geom.groups(), "one clear per boot transition");
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        assert_eq!(m.stats.clears.value(), base + 1);
        m.isa_alloc(m.geom.slot_addr(0, 0), seg(), 10_000_000);
        assert_eq!(m.stats.clears.value(), base + 2);
    }

    #[test]
    fn elide_dead_copy_halves_isa_traffic() {
        let run = |elide: bool| {
            let mut cfg = HmaConfig::scaled_laptop();
            cfg.stacked.capacity = ByteSize::mib(2);
            cfg.offchip.capacity = ByteSize::mib(10);
            cfg.elide_dead_copy = elide;
            let mut m = RemapPolicy::new(cfg, Flavor::Chameleon { opt: false });
            alloc_all(&mut m);
            // Promote slot 1 then free the stacked segment (forces a
            // relocation).
            let hot = m.geom.slot_addr(0, 1);
            let mut now = 0;
            for _ in 0..m.cfg.swap_threshold + 1 {
                now += 10_000_000;
                m.access(hot, false, now);
            }
            m.isa_free(m.geom.slot_addr(0, 0), seg(), now + 10_000_000);
            m.devices.stacked.stats().bytes_transferred.value()
                + m.devices.offchip.stats().bytes_transferred.value()
        };
        let full = run(false);
        let elided = run(true);
        assert!(elided < full, "eliding dead copies must reduce traffic");
    }

    #[test]
    fn isa_range_iterates_segments() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        // A 4KiB page covers two 2KiB segments.
        m.isa_alloc(0, 4096, 0);
        assert_eq!(m.stats.isa_allocs.value(), 2);
        m.isa_free(0, 4096, 0);
        assert_eq!(m.stats.isa_frees.value(), 2);
    }

    #[test]
    fn fully_allocated_system_is_all_pom() {
        for opt in [false, true] {
            let mut p = machine(Flavor::Chameleon { opt });
            alloc_all(&mut p);
            assert_eq!(p.mode_distribution().cache_groups, 0, "opt: {opt}");
        }
    }

    #[test]
    fn boot_state_is_all_cache_mode() {
        let p = machine(Flavor::Chameleon { opt: false });
        assert_eq!(p.mode_distribution().cache_fraction(), 1.0);
    }

    #[test]
    fn opt_converts_more_free_space_than_basic() {
        // Allocate everything, then free 20% of the *off-chip* segments.
        let mut basic = machine(Flavor::Chameleon { opt: false });
        let mut opt = machine(Flavor::Chameleon { opt: true });
        alloc_all(&mut basic);
        alloc_all(&mut opt);
        for g in 0..8u64 {
            let addr = (2 << 20) + g * 2048; // slot-1 segment of group g
            basic.isa_free(addr, 2048, 0);
            opt.isa_free(addr, 2048, 0);
        }
        assert_eq!(basic.mode_distribution().cache_groups, 0);
        assert_eq!(opt.mode_distribution().cache_groups, 8);
    }

    #[test]
    fn chameleon_beats_pom_hit_rate_with_free_space() {
        // One group with its stacked segment free: Chameleon caches the
        // hot off-chip segment on first touch, PoM needs the counter to
        // reach the threshold.
        let mut ch = machine(Flavor::Chameleon { opt: false });
        let mut pom = machine(Flavor::Pom);
        // Allocate all but the stacked segments.
        ch.isa_alloc(2 << 20, 10 << 20, 0);
        pom.isa_alloc(2 << 20, 10 << 20, 0);
        let addr = 2 << 20;
        let mut now = 0;
        for _ in 0..8 {
            now += 10_000_000;
            ch.access(addr, false, now);
            pom.access(addr, false, now);
        }
        assert!(
            ch.stats().stacked_hit_rate() > pom.stats().stacked_hit_rate(),
            "chameleon {} <= pom {}",
            ch.stats().stacked_hit_rate(),
            pom.stats().stacked_hit_rate()
        );
    }

    #[test]
    fn polymorphic_underperforms_chameleon_when_full() {
        // Fully allocated: Chameleon swaps hot data in (PoM behaviour),
        // Polymorphic does not.
        let mut ch = machine(Flavor::Chameleon { opt: false });
        let mut poly = machine(Flavor::Polymorphic);
        alloc_all(&mut ch);
        alloc_all(&mut poly);
        let addr = 2 << 20;
        let mut now = 0;
        for _ in 0..=ch.cfg.swap_threshold + 1 {
            now += 10_000_000;
            ch.access(addr, false, now);
            poly.access(addr, false, now);
        }
        assert!(ch.stats().stacked_hits.value() > 0);
        assert_eq!(poly.stats().stacked_hits.value(), 0);
    }

    #[test]
    fn never_enters_cache_mode() {
        let mut p = machine(Flavor::Pom);
        p.isa_alloc(0, 12 << 20, 0);
        p.isa_free(0, 12 << 20, 0);
        assert_eq!(p.mode_distribution().cache_groups, 0);
        assert_eq!(p.mode_distribution().pom_groups, 1024);
    }

    #[test]
    fn cameo_uses_line_segments_with_more_metadata() {
        let pom = machine(Flavor::Pom);
        let cameo = RemapPolicy::new(pom.cfg.clone().with_cameo_segments(), Flavor::Pom);
        assert!(
            cameo.srrt().metadata_bytes() > 16 * pom.srrt().metadata_bytes(),
            "64B segments need ~32x the SRRT entries of 2KB segments"
        );
    }

    #[test]
    fn repeated_offchip_access_eventually_hits_stacked() {
        let mut p = machine(Flavor::Pom);
        p.isa_alloc(0, 12 << 20, 0);
        let offchip_addr = 2 << 20; // first off-chip segment
        let mut now = 0;
        for _ in 0..=HmaConfig::scaled_laptop().swap_threshold + 1 {
            now += 10_000_000;
            p.access(offchip_addr, false, now);
        }
        assert!(
            p.stats().stacked_hits.value() > 0,
            "hot segment was promoted"
        );
        assert_eq!(p.stats().swaps.value(), 1);
    }

    #[test]
    fn amat_tracks_accesses() {
        let mut p = machine(Flavor::Pom);
        p.access(0, false, 0);
        p.access(64, false, 1000);
        assert_eq!(p.stats().access_latency.count(), 2);
        assert!(p.stats().amat() > 0.0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut p = machine(Flavor::Pom);
        p.access(0, false, 0);
        p.reset_stats();
        assert_eq!(p.stats().demand_accesses.value(), 0);
        assert_eq!(p.devices().stacked.stats().reads.value(), 0);
    }
}
