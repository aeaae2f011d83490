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
use chameleon_os::SegmentGeometry;
use chameleon_simkit::metrics::{EventKind, EventTrace};
use chameleon_simkit::Cycle;

use crate::policy::{base_lifecycle, HmaPolicy, PolicyBase};
use crate::srrt::{Mode, SegmentGroupTable, SrrtEntry};
use crate::{HmaConfig, ModeDistribution};

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
    base: PolicyBase,
    geom: SegmentGeometry,
    table: SegmentGroupTable,
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
        let geom = cfg.geometry();
        let boot_mode = if flavor.reconfigures() {
            Mode::Cache
        } else {
            Mode::Pom
        };
        let table = SegmentGroupTable::with_mode(geom.groups(), geom.slots_per_group(), boot_mode);
        Self {
            base: PolicyBase::new(cfg),
            geom,
            table,
            trace: EventTrace::default(),
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
            m.base.stats.isa_allocs.inc();
            m.trace.push(now, EventKind::IsaAlloc, group);
            m.isa_alloc_segment(group, slot, now);
        });
    }

    /// `ISA-Free` for a byte range (Algorithm 2).
    fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
        self.for_each_segment(addr, len, |m, group, slot| {
            m.base.stats.isa_frees.inc();
            m.trace.push(now, EventKind::IsaFree, group);
            m.isa_free_segment(group, slot, now);
        });
    }
}

impl HmaPolicy for RemapPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        let loc = self.geom.locate(paddr);
        self.base.stats.demand_accesses.inc();
        let mut e = *self.table.entry(loc.group);

        let op = if write { MemOp::Write } else { MemOp::Read };
        let latency = match e.mode() {
            Mode::Pom => self.access_pom(&mut e, loc.group, loc.slot, loc.offset, op, now),
            Mode::Cache => self.access_cache(&mut e, loc.group, loc.slot, loc.offset, op, now),
        };
        self.table.store(loc.group, e);
        self.base.stats.access_latency.record(latency as f64);
        latency
    }

    /// A posted dirty-line writeback from the LLC: routed to wherever the
    /// line's data currently lives, with no fill/promotion side effects.
    fn writeback(&mut self, paddr: u64, now: Cycle) {
        let loc = self.geom.locate(paddr);
        let e = *self.table.entry(loc.group);
        self.base.stats.llc_writebacks.inc();
        let target = match e.mode() {
            Mode::Cache if e.cached() == Some(loc.slot) && !e.is_busy(now) => {
                // The line's segment is cached: write the stacked copy and
                // mark it dirty so eviction writes it back.
                let mut e2 = e;
                e2.mark_dirty();
                self.table.store(loc.group, e2);
                0
            }
            _ => e.physical_of(loc.slot),
        };
        self.device_access(loc.group, target, loc.offset, MemOp::Write, now);
    }

    base_lifecycle!(accessors);

    fn reset_stats(&mut self) {
        self.base.reset_stats();
        self.trace.clear();
    }

    /// Completes all in-flight transfers and quiesces the devices: used
    /// between a warm-up/pre-fault phase and measurement so setup traffic
    /// does not pollute timed results. SRRT state (modes, remappings,
    /// cached contents) is preserved.
    fn settle(&mut self) {
        self.table.clear_busy_all();
        self.base.settle();
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
    /// copy: every group but the empty cache-mode ones.
    fn stacked_residency(&self) -> (u64, u64) {
        let resident = self.table.len() as u64 - self.table.empty_cache_groups();
        (
            resident * self.geom.segment_bytes(),
            self.geom.stacked_bytes(),
        )
    }

    fn events(&self) -> Option<&EventTrace> {
        Some(&self.trace)
    }
}

/// Which of the two segments a swap through the stacked slot exchanges
/// hold live data. With `elide_dead_copy` only live data moves; without
/// it the hardware always performs the full swap.
#[derive(Debug, Clone, Copy)]
enum Live {
    /// Both segments: a full swap.
    Both,
    /// Only the stacked slot's occupant: it is written to the other
    /// segment's home, whose dead data is not copied in.
    Occupant,
    /// Neither: only the SRRT changes.
    Neither,
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
                self.base.stats.stacked_hits.inc();
            } else {
                self.base.stats.buffer_hits.inc();
            }
            let latency = self.device_access(group, source, offset, op, now);
            self.base.stats.transit_latency.record(latency as f64);
            return latency;
        }

        let phys = e.physical_of(slot);
        let latency = self.device_access(group, phys, offset, op, now);
        if phys == 0 {
            self.base.stats.stacked_hits.inc();
            e.note_stacked_access();
        } else if self.flavor.demand_swaps()
            && e.note_offchip_access(slot, self.base.cfg.swap_threshold)
            && !e.is_busy(now)
        {
            // Promote the hot segment into the stacked slot (fast swap).
            let occupant = e.logical_in(0);
            self.swap_through_stacked(e, group, slot, occupant, Live::Both, now);
            self.base.stats.swaps.inc();
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
            self.base.stats.stale_accesses.inc();
            return self.base.cfg.buffer_latency;
        }
        if e.cached() == Some(slot) {
            if e.in_transit(slot, now) {
                // The fill is still streaming this segment in; serve from
                // its off-chip home via the source-side buffers.
                self.base.stats.buffer_hits.inc();
                let home = e.physical_of(slot);
                return self.device_access(group, home, offset, op, now);
            }
            // Stacked cache hit.
            let latency = self.device_access(group, 0, offset, op, now);
            if op == MemOp::Write {
                e.mark_dirty();
            }
            self.base.stats.stacked_hits.inc();
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
        if self.base.cfg.cache_fill_threshold > 0
            && !e.note_offchip_access(slot, self.base.cfg.cache_fill_threshold)
        {
            return latency;
        }
        // Victim writeback and new fill pipeline through separate
        // buffers; both proceed concurrently.
        let mut done = now;
        if let Some(victim) = e.cached().filter(|_| e.is_dirty()) {
            done = self.write_back_copy(e, group, victim, now);
        }
        let stacked_addr = self.geom.slot_addr(group, 0);
        let home_addr = self.offchip_addr(group, home);
        let len = self.base.segment_len();
        let fill = self
            .base
            .devices
            .fill_segment(home_addr, stacked_addr, len, now);
        done = done.max(fill);
        e.set_cached(Some(slot));
        if op == MemOp::Write {
            e.mark_dirty();
        }
        e.set_transit(slot, None, done);
        self.base.stats.fills.inc();
        self.trace.push(now, EventKind::Fill, group);
        latency
    }

    fn device_access(&mut self, group: u64, phys: u8, offset: u64, op: MemOp, now: Cycle) -> Cycle {
        let line_off = offset & !63;
        if phys == 0 {
            let addr = self.geom.slot_addr(group, 0) + line_off;
            let l = self.base.devices.stacked.access(addr, 64, op, now).latency;
            self.base.stats.stacked_latency.record(l as f64);
            l
        } else {
            let addr = self.offchip_addr(group, phys) + line_off;
            let l = self.base.devices.offchip.access(addr, 64, op, now).latency;
            self.base.stats.offchip_latency.record(l as f64);
            l
        }
    }

    /// Device-relative off-chip address of physical slot `phys` (1..) of
    /// `group`.
    fn offchip_addr(&self, group: u64, phys: u8) -> u64 {
        self.geom.offchip_rel(self.geom.slot_addr(group, phys))
    }

    fn for_each_segment(&mut self, addr: u64, len: u64, mut f: impl FnMut(&mut Self, u64, u8)) {
        assert!(len > 0, "empty ISA range");
        for s in self.geom.segments(addr, len) {
            let (group, slot) = self.geom.group_slot(s);
            f(self, group, slot);
        }
    }

    /// The ISA-Alloc transition for one segment: Figure 8 (Chameleon,
    /// Polymorphic) and Figure 12 (Chameleon-Opt). A PoM-mode group only
    /// tracks the ABV; the PoM flavor never leaves PoM mode.
    fn isa_alloc_segment(&mut self, group: u64, slot: u8, now: Cycle) {
        let mut e = *self.table.entry(group);
        e.set_allocated(slot, true);
        if e.mode() == Mode::Cache {
            // In a basic cache-mode group logical 0 is the unallocated
            // segment homed in the stacked slot, so `stacked_home` means
            // `slot == 0` there and the group is never fully allocated.
            let stacked_home = e.physical_of(slot) == 0;
            let spare = if stacked_home && self.flavor.opt() {
                e.free_logical_except(slot)
            } else {
                None
            };
            if let Some(q) = spare {
                // Figure 13: proactively remap the newly allocated
                // segment to a free off-chip one, so the stacked slot
                // keeps backing the cache. Both hold dead data.
                self.swap_through_stacked(&mut e, group, slot, q, Live::Neither, now);
                self.base.stats.isa_swaps.inc();
                self.trace.push(now, EventKind::IsaSwap, group);
                // The remap displaced the stacked slot's cached copy.
                self.drop_cached(&mut e, group, now);
            } else if stacked_home || e.all_allocated() {
                // Figure 8 flow 1-2-3-{6,7}-8 / Figure 12 box 10: the
                // stacked segment is live and no free segment can take
                // its place, so the group returns to PoM mode.
                self.drop_cached(&mut e, group, now);
                self.transition(&mut e, group, Mode::Pom, now);
            }
        }
        self.table.store(group, e);
    }

    /// The ISA-Free transition for one segment: Figure 10 (Chameleon,
    /// Polymorphic) and Figure 14 (Chameleon-Opt).
    fn isa_free_segment(&mut self, group: u64, slot: u8, now: Cycle) {
        let mut e = *self.table.entry(group);
        e.set_allocated(slot, false);
        // A PoM-mode group turns to cache when the stacked-range segment
        // is freed, or, for Chameleon-Opt, any segment.
        let to_cache =
            self.flavor.reconfigures() && e.mode() == Mode::Pom && (slot == 0 || self.flavor.opt());
        if to_cache {
            if e.physical_of(slot) != 0 {
                // Figure 11 / Figure 14: swap the freed segment into the
                // stacked slot so the slot can cache. Only the displaced
                // occupant's data is live.
                let occupant = e.logical_in(0);
                self.swap_through_stacked(&mut e, group, slot, occupant, Live::Occupant, now);
                self.base.stats.isa_swaps.inc();
                self.trace.push(now, EventKind::IsaSwap, group);
            }
            self.transition(&mut e, group, Mode::Cache, now);
        } else if e.cached() == Some(slot) {
            // The freed segment's data is dead: drop its cached copy
            // without a writeback (Figure 10 flow 1-2-4-5).
            e.set_cached(None);
        }
        self.table.store(group, e);
    }

    /// Exchanges the homes of logical segments `a` and `b`, one of which
    /// lives in the stacked slot, moving the data `live` names and
    /// marking both in transit until the transfer completes.
    fn swap_through_stacked(
        &mut self,
        e: &mut SrrtEntry,
        group: u64,
        a: u8,
        b: u8,
        live: Live,
        now: Cycle,
    ) {
        let (pa, pb) = (e.physical_of(a), e.physical_of(b));
        debug_assert_eq!(pa.min(pb), 0, "one segment must live in the stacked slot");
        let stacked_addr = self.geom.slot_addr(group, 0);
        let offchip_addr = self.offchip_addr(group, pa.max(pb));
        let len = self.base.segment_len();
        let devices = &mut self.base.devices;
        let live = if self.base.cfg.elide_dead_copy {
            live
        } else {
            Live::Both
        };
        let done = match live {
            Live::Both => Some(devices.swap_segments(stacked_addr, offchip_addr, len, now)),
            Live::Occupant => Some(devices.writeback_segment(stacked_addr, offchip_addr, len, now)),
            Live::Neither => None,
        };
        if let Some(done) = done {
            e.set_transit(a, Some(b), done);
        }
        e.swap_homes(a, b);
    }

    /// Writes the dirty cached copy of logical `victim` back to its
    /// off-chip home, returning when the transfer completes.
    fn write_back_copy(&mut self, e: &SrrtEntry, group: u64, victim: u8, now: Cycle) -> Cycle {
        let home = self.offchip_addr(group, e.physical_of(victim));
        let stacked_addr = self.geom.slot_addr(group, 0);
        let len = self.base.segment_len();
        let done = self
            .base
            .devices
            .writeback_segment(stacked_addr, home, len, now);
        self.base.stats.writebacks.inc();
        self.trace.push(now, EventKind::Writeback, group);
        done
    }

    /// Drops the cached copy, writing it back to its home if dirty.
    fn drop_cached(&mut self, e: &mut SrrtEntry, group: u64, now: Cycle) {
        if let Some(victim) = e.cached() {
            if e.is_dirty() {
                let done = self.write_back_copy(e, group, victim, now);
                e.set_transit(victim, None, done);
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
        if self.base.cfg.secure_clear {
            let stacked_addr = self.geom.slot_addr(group, 0);
            let len = self.base.segment_len();
            let done = self.base.devices.clear_segment(stacked_addr, len, now);
            e.set_transit(e.logical_in(0), None, done);
            self.base.stats.clears.inc();
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

/// The ISA transitions as they were before basic Chameleon and
/// Chameleon-Opt shared one state machine: one function per variant and
/// direction, each with its own swap and write-back arithmetic. Kept as
/// the reference the transition differential checks
/// `isa_alloc_segment`/`isa_free_segment` against; demand traffic runs
/// through the policy itself.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct ReferenceRemap(pub(super) RemapPolicy);

    impl IsaHook for ReferenceRemap {
        fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
            self.0.for_each_segment(addr, len, |m, group, slot| {
                m.base.stats.isa_allocs.inc();
                m.trace.push(now, EventKind::IsaAlloc, group);
                let mut e = *m.table.entry(group);
                if !m.flavor.reconfigures() {
                    e.set_allocated(slot, true);
                } else if m.flavor.opt() {
                    isa_alloc_opt(m, &mut e, group, slot, now);
                } else {
                    isa_alloc_basic(m, &mut e, group, slot, now);
                }
                m.table.store(group, e);
            });
        }

        fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
            self.0.for_each_segment(addr, len, |m, group, slot| {
                m.base.stats.isa_frees.inc();
                m.trace.push(now, EventKind::IsaFree, group);
                let mut e = *m.table.entry(group);
                if !m.flavor.reconfigures() {
                    e.set_allocated(slot, false);
                } else if m.flavor.opt() {
                    isa_free_opt(m, &mut e, group, slot, now);
                } else {
                    isa_free_basic(m, &mut e, group, slot, now);
                }
                m.table.store(group, e);
            });
        }
    }

    fn isa_alloc_basic(m: &mut RemapPolicy, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        if slot == 0 && e.mode() == Mode::Cache {
            drop_cached(m, e, group, now);
            m.transition(e, group, Mode::Pom, now);
        }
        e.set_allocated(slot, true);
    }

    fn isa_free_basic(m: &mut RemapPolicy, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        e.set_allocated(slot, false);
        if slot != 0 {
            if e.cached() == Some(slot) {
                e.set_cached(None);
            }
            return;
        }
        if e.mode() == Mode::Cache {
            return;
        }
        let phys = e.physical_of(0);
        if phys != 0 {
            let occupant = e.logical_in(0);
            let seg = m.base.cfg.segment.bytes() as u32;
            let stacked_addr = m.geom.slot_addr(group, 0);
            let off_addr = m.geom.offchip_rel(m.geom.slot_addr(group, phys));
            let done = if m.base.cfg.elide_dead_copy {
                m.base
                    .devices
                    .writeback_segment(stacked_addr, off_addr, seg, now)
            } else {
                m.base
                    .devices
                    .swap_segments(stacked_addr, off_addr, seg, now)
            };
            e.swap_homes(0, occupant);
            e.set_transit(0, Some(occupant), done);
            m.base.stats.isa_swaps.inc();
            m.trace.push(now, EventKind::IsaSwap, group);
        }
        m.transition(e, group, Mode::Cache, now);
        e.set_cached(None);
    }

    fn isa_alloc_opt(m: &mut RemapPolicy, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        e.set_allocated(slot, true);
        if e.mode() != Mode::Cache {
            return;
        }
        if e.physical_of(slot) == 0 {
            if let Some(q) = e.free_logical_except(slot) {
                let q_phys = e.physical_of(q);
                if !m.base.cfg.elide_dead_copy {
                    let seg = m.base.cfg.segment.bytes() as u32;
                    let stacked_addr = m.geom.slot_addr(group, 0);
                    let off_addr = m.geom.offchip_rel(m.geom.slot_addr(group, q_phys));
                    let done = m
                        .base
                        .devices
                        .swap_segments(stacked_addr, off_addr, seg, now);
                    e.set_transit(slot, Some(q), done);
                }
                e.swap_homes(slot, q);
                m.base.stats.isa_swaps.inc();
                m.trace.push(now, EventKind::IsaSwap, group);
                drop_cached(m, e, group, now);
            } else {
                drop_cached(m, e, group, now);
                m.transition(e, group, Mode::Pom, now);
            }
        } else if e.all_allocated() {
            drop_cached(m, e, group, now);
            m.transition(e, group, Mode::Pom, now);
        }
    }

    fn isa_free_opt(m: &mut RemapPolicy, e: &mut SrrtEntry, group: u64, slot: u8, now: Cycle) {
        e.set_allocated(slot, false);
        if e.mode() == Mode::Cache {
            if e.cached() == Some(slot) {
                e.set_cached(None);
            }
            return;
        }
        let phys = e.physical_of(slot);
        if phys != 0 {
            let occupant = e.logical_in(0);
            let seg = m.base.cfg.segment.bytes() as u32;
            let stacked_addr = m.geom.slot_addr(group, 0);
            let off_addr = m.geom.offchip_rel(m.geom.slot_addr(group, phys));
            let done = if m.base.cfg.elide_dead_copy {
                m.base
                    .devices
                    .writeback_segment(stacked_addr, off_addr, seg, now)
            } else {
                m.base
                    .devices
                    .swap_segments(stacked_addr, off_addr, seg, now)
            };
            e.swap_homes(slot, occupant);
            e.set_transit(slot, Some(occupant), done);
            m.base.stats.isa_swaps.inc();
            m.trace.push(now, EventKind::IsaSwap, group);
        }
        m.transition(e, group, Mode::Cache, now);
        e.set_cached(None);
    }

    fn drop_cached(m: &mut RemapPolicy, e: &mut SrrtEntry, group: u64, now: Cycle) {
        if let Some(victim) = e.cached() {
            if e.is_dirty() {
                let seg = m.base.cfg.segment.bytes() as u32;
                let stacked_addr = m.geom.slot_addr(group, 0);
                let victim_home = m
                    .geom
                    .offchip_rel(m.geom.slot_addr(group, e.physical_of(victim)));
                let done = m
                    .base
                    .devices
                    .writeback_segment(stacked_addr, victim_home, seg, now);
                e.set_transit(victim, None, done);
                m.base.stats.writebacks.inc();
                m.trace.push(now, EventKind::Writeback, group);
            }
            e.set_cached(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceRemap;
    use super::*;
    use chameleon_simkit::mem::ByteSize;
    use proptest::prelude::*;

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
    #[should_panic(expected = "slots must be 1..=8, got 9")]
    fn ratio_beyond_the_srrt_slot_limit_rejected() {
        // A 1:8 group has 9 slots; the SRRT entry holds at most MAX_SLOTS.
        let mut cfg = HmaConfig::scaled_laptop();
        cfg.stacked.capacity = ByteSize::mib(2);
        cfg.offchip.capacity = ByteSize::mib(16);
        RemapPolicy::new(cfg, Flavor::Pom);
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
        let mut hit_before = m.base.stats.stacked_hits.value();
        assert_eq!(hit_before, 0);
        for _ in 0..m.base.cfg.swap_threshold + 1 {
            now += 10_000_000; // far apart so busy periods expire
            m.access(paddr, false, now);
        }
        assert_eq!(
            m.base.stats.swaps.value(),
            1,
            "threshold reached -> one swap"
        );
        // After the swap, accesses to that address hit the stacked device
        // (the threshold+1'th access in the loop already did).
        now += 10_000_000;
        m.access(paddr, false, now);
        hit_before = m.base.stats.stacked_hits.value();
        assert_eq!(hit_before, 2);
        // ... and the displaced stacked segment is now served off-chip.
        now += 10_000_000;
        m.access(m.geom.slot_addr(0, 0), false, now);
        assert_eq!(m.base.stats.stacked_hits.value(), 2);
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
        let swaps_before = m.base.stats.isa_swaps.value();
        m.isa_free(m.geom.slot_addr(2, 4), seg(), 0);
        assert_eq!(m.mode_distribution().cache_groups, 1);
        let e = m.table.entry(2);
        // The freed off-chip segment was proactively remapped into the
        // stacked physical slot so the group can cache.
        assert_eq!(e.physical_of(4), 0);
        assert_eq!(e.logical_in(0), 4);
        assert_eq!(m.base.stats.isa_swaps.value(), swaps_before + 1);
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
                m.base.stats.fills.value(),
                expected,
                "fill only at the threshold ({k})"
            );
        }
        // After the fill drains, the segment hits in stacked DRAM.
        now += 10_000_000;
        m.access(paddr, false, now);
        assert_eq!(m.base.stats.stacked_hits.value(), 1);
    }

    #[test]
    fn cache_mode_fills_on_first_touch_and_hits_after() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 2);
        let l1 = m.access(paddr, false, 1_000_000);
        assert_eq!(
            m.base.stats.fills.value(),
            1,
            "first touch fills, no threshold"
        );
        assert_eq!(
            m.base.stats.stacked_hits.value(),
            0,
            "demand line came from off-chip"
        );
        // Wait out the fill, then re-access: stacked hit.
        let later = 1_000_000 + 10_000_000;
        let l2 = m.access(paddr, false, later);
        assert_eq!(m.base.stats.stacked_hits.value(), 1);
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
        assert_eq!(m.base.stats.writebacks.value(), 1);
        assert_eq!(m.base.stats.fills.value(), 2);
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
        assert_eq!(m.base.stats.writebacks.value(), 0);
        assert_eq!(m.base.stats.fills.value(), 2);
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
        assert_eq!(
            m.base.stats.writebacks.value(),
            1,
            "dirty copy written back"
        );
    }

    #[test]
    fn free_of_remapped_stacked_segment_swaps_back() {
        // Figure 11: promote an off-chip segment into the stacked slot,
        // then free the stacked-range segment.
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        let hot = m.geom.slot_addr(0, 1);
        let mut now = 0;
        for _ in 0..m.base.cfg.swap_threshold + 1 {
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
        assert_eq!(m.base.stats.isa_swaps.value(), 1);
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
        assert_eq!(m.base.stats.swaps.value(), 0);
        assert_eq!(m.base.stats.stacked_hits.value(), 0);
    }

    #[test]
    fn polymorphic_still_uses_free_stacked_space() {
        let mut m = machine(Flavor::Polymorphic);
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 1);
        m.access(paddr, false, 1_000_000);
        m.access(paddr, false, 50_000_000);
        assert_eq!(m.base.stats.fills.value(), 1);
        assert_eq!(m.base.stats.stacked_hits.value(), 1);
    }

    #[test]
    fn in_transit_access_served_from_buffer() {
        let mut m = machine(Flavor::Chameleon { opt: false });
        alloc_all(&mut m);
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        let paddr = m.geom.slot_addr(0, 2);
        m.access(paddr, false, 1_000_000); // triggers a fill
        let offchip_reads_before = m.base.devices.offchip.stats().reads.value();
        // Access again immediately: the fill is still in flight, so the
        // line is serviced from the segment's source (off-chip) side.
        m.access(paddr, false, 1_000_001);
        assert_eq!(m.base.stats.buffer_hits.value(), 1);
        assert_eq!(
            m.base.devices.offchip.stats().reads.value(),
            offchip_reads_before + 1,
            "in-transit service charges the source memory"
        );
        assert_eq!(
            m.base.stats.stacked_hits.value(),
            0,
            "not yet a stacked hit"
        );
        // Once the fill drains, the same line hits in stacked DRAM.
        m.access(paddr, false, 100_000_000);
        assert_eq!(m.base.stats.stacked_hits.value(), 1);
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
        assert_eq!(lat, m.base.cfg.buffer_latency);
        assert_eq!(m.base.stats.stale_accesses.value(), 1);
    }

    #[test]
    fn secure_clear_charges_writes_on_transitions() {
        let mut cfg = HmaConfig::scaled_laptop();
        cfg.stacked.capacity = ByteSize::mib(2);
        cfg.offchip.capacity = ByteSize::mib(10);
        cfg.secure_clear = true;
        let mut m = RemapPolicy::new(cfg, Flavor::Chameleon { opt: false });
        alloc_all(&mut m); // boot-time cache->PoM transitions also clear
        let base = m.base.stats.clears.value();
        assert_eq!(base, m.geom.groups(), "one clear per boot transition");
        m.isa_free(m.geom.slot_addr(0, 0), seg(), 0);
        assert_eq!(m.base.stats.clears.value(), base + 1);
        m.isa_alloc(m.geom.slot_addr(0, 0), seg(), 10_000_000);
        assert_eq!(m.base.stats.clears.value(), base + 2);
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
            for _ in 0..m.base.cfg.swap_threshold + 1 {
                now += 10_000_000;
                m.access(hot, false, now);
            }
            m.isa_free(m.geom.slot_addr(0, 0), seg(), now + 10_000_000);
            m.base.devices.stacked.stats().bytes_transferred.value()
                + m.base.devices.offchip.stats().bytes_transferred.value()
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
        assert_eq!(m.base.stats.isa_allocs.value(), 2);
        m.isa_free(0, 4096, 0);
        assert_eq!(m.base.stats.isa_frees.value(), 2);
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
        for _ in 0..=ch.base.cfg.swap_threshold + 1 {
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
        let cameo = RemapPolicy::new(pom.base.cfg.clone().with_cameo_segments(), Flavor::Pom);
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

    /// One step of the transition differential. `slot` and `group` are
    /// taken modulo the machine's geometry; ISA ranges span `segs`
    /// address-consecutive segments.
    #[derive(Debug, Clone)]
    enum Step {
        Alloc {
            group: u64,
            slot: u8,
            segs: u64,
        },
        Free {
            group: u64,
            slot: u8,
            segs: u64,
        },
        Access {
            group: u64,
            slot: u8,
            line: u64,
            write: bool,
        },
        Writeback {
            group: u64,
            slot: u8,
            line: u64,
        },
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..9, 0u64..8, 0u8..8, 1u64..4, 0u64..32).prop_map(|(kind, group, slot, n, line)| {
            match kind {
                0 | 1 => Step::Alloc {
                    group,
                    slot,
                    segs: n,
                },
                2 | 3 => Step::Free {
                    group,
                    slot,
                    segs: n,
                },
                4..=6 => Step::Access {
                    group,
                    slot,
                    line,
                    write: n == 1,
                },
                _ => Step::Writeback { group, slot, line },
            }
        })
    }

    /// The five flavors `RemapPolicy` runs as, CAMEO being PoM over
    /// 64-byte segments.
    fn flavor(i: u8) -> (Flavor, bool) {
        match i {
            0 => (Flavor::Pom, false),
            1 => (Flavor::Pom, true),
            2 => (Flavor::Chameleon { opt: false }, false),
            3 => (Flavor::Chameleon { opt: true }, false),
            _ => (Flavor::Polymorphic, false),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One ISA state machine changes nothing: after every step of an
        /// arbitrary alloc/free/access/writeback sequence, every group's
        /// SRRT entry, the policy statistics and both devices' statistics
        /// equal those of the four pre-fold transition functions, for
        /// every flavor and ablation setting; so does the event trace.
        #[test]
        fn transitions_match_the_pre_fold_reference(
            which in 0u8..5,
            ratio in 1u64..8,
            elide_dead_copy in any::<bool>(),
            secure_clear in any::<bool>(),
            cache_fill_threshold in 0u16..3,
            swap_threshold in 1u16..4,
            steps in prop::collection::vec(
                (step(), prop::sample::select(vec![1u64, 500, 5_000, 1_000_000])),
                1..200,
            ),
        ) {
            // The smallest devices whose capacity is a whole number of
            // rows across all banks.
            const STACKED: u64 = 64 << 10;
            let (flavor, cameo) = flavor(which);
            let mut cfg = HmaConfig::scaled_laptop();
            if cameo {
                cfg = cfg.with_cameo_segments();
            }
            let seg = cfg.segment.bytes();
            cfg.stacked.capacity = ByteSize::bytes_exact(STACKED);
            cfg.offchip.capacity = ByteSize::bytes_exact(STACKED * ratio);
            cfg.elide_dead_copy = elide_dead_copy;
            cfg.secure_clear = secure_clear;
            cfg.cache_fill_threshold = cache_fill_threshold;
            cfg.swap_threshold = swap_threshold;
            let mut m = RemapPolicy::new(cfg.clone(), flavor);
            let mut r = ReferenceRemap(RemapPolicy::new(cfg, flavor));
            let total = m.geom.total_bytes();
            let slots = m.geom.slots_per_group();
            let addr = |m: &RemapPolicy, group: u64, slot: u8| m.geom.slot_addr(group, slot % slots);
            let mut now = 0;
            for (step, gap) in steps {
                now += gap;
                match step {
                    Step::Alloc { group, slot, segs } => {
                        let a = addr(&m, group, slot);
                        let len = (segs * seg).min(total - a);
                        m.isa_alloc(a, len, now);
                        r.isa_alloc(a, len, now);
                    }
                    Step::Free { group, slot, segs } => {
                        let a = addr(&m, group, slot);
                        let len = (segs * seg).min(total - a);
                        m.isa_free(a, len, now);
                        r.isa_free(a, len, now);
                    }
                    Step::Access { group, slot, line, write } => {
                        let a = addr(&m, group, slot) + (line * 64) % seg;
                        m.access(a, write, now);
                        r.0.access(a, write, now);
                    }
                    Step::Writeback { group, slot, line } => {
                        let a = addr(&m, group, slot) + (line * 64) % seg;
                        m.writeback(a, now);
                        r.0.writeback(a, now);
                    }
                }
                for g in 0..m.geom.groups() {
                    prop_assert_eq!(m.table.entry(g), r.0.table.entry(g), "group {}", g);
                }
                prop_assert_eq!(format!("{:?}", m.stats()), format!("{:?}", r.0.stats()));
                for (d, rd) in [
                    (&m.base.devices.stacked, &r.0.base.devices.stacked),
                    (&m.base.devices.offchip, &r.0.base.devices.offchip),
                ] {
                    prop_assert_eq!(format!("{:?}", d.stats()), format!("{:?}", rd.stats()));
                }
            }
            prop_assert_eq!(format!("{:?}", m.trace), format!("{:?}", r.0.trace));
        }
    }
}
