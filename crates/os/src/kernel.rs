//! The kernel model: processes, demand paging, swap, and ISA notification.
//!
//! A frame joins a page through one install step and leaves it through one
//! free step; a first touch, a swap-in and a migration differ only in
//! where the new frame comes from.

use std::collections::{HashMap, VecDeque};

use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::metrics::{EventKind, EventTrace};
use chameleon_simkit::Cycle;
use serde::{Deserialize, Serialize};

use crate::frame::{BuddyAllocator, MemoryMap, NodeId, NodePreference};
use crate::geometry::SegmentGeometry;
use crate::isa::IsaHook;
use crate::ledger::GroupLedger;
use crate::page_table::{PageState, PageTable, PAGE_SIZE};
use crate::stats::OsStats;
use crate::swap::SsdModel;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pid(pub u32);

/// Which nodes the OS can allocate from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Visibility {
    /// Both stacked and off-chip DRAM are OS-visible (PoM, Chameleon).
    Both,
    /// Only off-chip DRAM is OS-visible (cache architectures: the stacked
    /// DRAM is hidden hardware state).
    OffchipOnly,
}

/// Stall for a minor (first-touch) fault. Major faults are charged by
/// the swap device ([`SsdModel`]: Table I's 100K-cycle page reads plus
/// queueing under thrashing).
const MINOR_FAULT_LATENCY: Cycle = 2_000;

/// Kernel configuration.
///
/// # Example
///
/// ```
/// use chameleon_os::{MemoryMap, OsConfig, OsKernel, SegmentGeometry};
/// use chameleon_simkit::mem::ByteSize;
///
/// let (stacked, offchip) = (ByteSize::mib(2), ByteSize::mib(8));
/// let geom = SegmentGeometry::new(stacked, offchip, ByteSize::kib(2));
/// let cfg = OsConfig { group_placement: Some(geom), ..OsConfig::default() };
/// let os = OsKernel::new(cfg, MemoryMap::new(stacked, offchip));
/// assert_eq!(os.ledger().map(|l| l.cache_capable_fraction()), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OsConfig {
    /// Node selection policy for new allocations.
    pub preference: NodePreference,
    /// Which nodes the OS may allocate from.
    pub visibility: Visibility,
    /// Group-aware placement (the paper's Section VI-G extension): the
    /// kernel mirrors the per-group ABV state of this segment geometry and
    /// scores candidate frames so allocations avoid consuming a group's
    /// last free segment.
    pub group_placement: Option<SegmentGeometry>,
}

impl Default for OsConfig {
    fn default() -> Self {
        Self {
            preference: NodePreference::Balanced,
            visibility: Visibility::Both,
            group_placement: None,
        }
    }
}

/// The kind of page fault a touch incurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// First touch; a frame was demand-allocated.
    Minor,
    /// Swapped-out page read back from the SSD.
    Major,
}

/// Result of touching a virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Translated physical address.
    pub paddr: u64,
    /// Fault incurred, if any.
    pub fault: Option<FaultKind>,
    /// CPU cycles the faulting task stalls.
    pub stall: Cycle,
}

/// One placement hint from the guidance tier: move `page` to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementHint {
    /// Physical address of the page to move (any byte within it).
    pub page: u64,
    /// Node the page should live on.
    pub target: NodeId,
}

/// Outcome of one [`OsKernel::apply_hints`] batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintOutcome {
    /// Hints that failed with `-ENOMEM`.
    pub enomem: u64,
    /// Every applied move as `(old_page, new_page, target)`, so the
    /// guidance tier can re-point its tracking at the new frames.
    pub applied: Vec<(u64, u64, NodeId)>,
}

/// Kernel errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// The pid is not a live process.
    NoSuchProcess(Pid),
    /// The virtual address exceeds the process footprint.
    OutOfRange(u64),
    /// A page migration target node has no free space (-ENOMEM).
    MigrationEnomem,
    /// The physical page is not currently mapped by anyone.
    NotMapped(u64),
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::NoSuchProcess(p) => write!(f, "no such process {p:?}"),
            OsError::OutOfRange(v) => write!(f, "virtual address {v:#x} out of range"),
            OsError::MigrationEnomem => write!(f, "migration failed: no memory on target node"),
            OsError::NotMapped(p) => write!(f, "physical page {p:#x} not mapped"),
        }
    }
}

impl std::error::Error for OsError {}

#[derive(Debug)]
struct Process {
    table: PageTable,
    footprint: u64,
}

/// The operating-system model.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct OsKernel {
    cfg: OsConfig,
    map: MemoryMap,
    stacked_alloc: Option<BuddyAllocator>,
    offchip_alloc: BuddyAllocator,
    /// Processes indexed by `pid - 1` (pids are handed out sequentially
    /// from 1); an exited process leaves a `None` slot so pids stay
    /// stable. Indexing replaces the old per-touch `HashMap` lookup.
    processes: Vec<Option<Process>>,
    /// FIFO of resident pages for replacement as `(frame, stamp)`,
    /// validated lazily against `reverse`: an entry whose stamp is not
    /// its frame's current one (freed, migrated, or freed and mapped
    /// again since) is stale and skipped.
    fifo: VecDeque<(u64, u64)>,
    /// frame base -> (pid, vpn, stamp) reverse map of resident frames.
    reverse: HashMap<u64, (Pid, u64, u64)>,
    /// Stamp of the next FIFO entry.
    next_stamp: u64,
    next_pid: u32,
    ledger: Option<GroupLedger>,
    ssd: SsdModel,
    stats: OsStats,
    /// Ring buffer of fault events for the metrics timeline.
    trace: EventTrace,
    /// Bumped on every event that can invalidate an existing
    /// virtual→physical translation (swap-out, page release, process
    /// exit, migration). Cached translations made under an older
    /// generation must be discarded; events that only *add* mappings
    /// (demand faults) do not bump it. See [`OsKernel::mapping_generation`].
    mapping_generation: u64,
}

impl OsKernel {
    /// Builds a kernel over the given physical map.
    ///
    /// Frames are handed out in scrambled order, modelling the fragmented
    /// free lists of a long-running machine (the state Figure 3
    /// measures); the paper's free space is scattered across segment
    /// groups for the same reason.
    ///
    /// # Panics
    ///
    /// Panics if node capacities are not 2MB-aligned (buddy requirement).
    pub fn new(cfg: OsConfig, map: MemoryMap) -> Self {
        let stacked_alloc = match cfg.visibility {
            Visibility::Both => Some(BuddyAllocator::new(
                map.base(NodeId::Stacked),
                map.stacked().bytes(),
                0x5EED_0001,
            )),
            Visibility::OffchipOnly => None,
        };
        let offchip_alloc = BuddyAllocator::new(
            map.base(NodeId::Offchip),
            map.offchip().bytes(),
            0x5EED_0002,
        );
        Self {
            cfg,
            map,
            stacked_alloc,
            offchip_alloc,
            processes: Vec::new(),
            fifo: VecDeque::new(),
            reverse: HashMap::new(),
            next_stamp: 0,
            next_pid: 1,
            ledger: cfg.group_placement.map(GroupLedger::new),
            ssd: SsdModel::default(),
            stats: OsStats::default(),
            trace: EventTrace::default(),
            mapping_generation: 0,
        }
    }

    /// The index of `pid`'s slot in `processes` (pids count from 1).
    fn slot(pid: Pid) -> Option<usize> {
        pid.0.checked_sub(1).map(|i| i as usize)
    }

    fn process(&self, pid: Pid) -> Result<&Process, OsError> {
        Self::slot(pid)
            .and_then(|i| self.processes.get(i)?.as_ref())
            .ok_or(OsError::NoSuchProcess(pid))
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, OsError> {
        Self::slot(pid)
            .and_then(|i| self.processes.get_mut(i)?.as_mut())
            .ok_or(OsError::NoSuchProcess(pid))
    }

    /// The allocator of `node`; `None` for a stacked node the OS cannot
    /// see.
    fn allocator(&self, node: NodeId) -> Option<&BuddyAllocator> {
        match node {
            NodeId::Stacked => self.stacked_alloc.as_ref(),
            NodeId::Offchip => Some(&self.offchip_alloc),
        }
    }

    /// The mutable form of [`OsKernel::allocator`].
    fn allocator_mut(&mut self, node: NodeId) -> Option<&mut BuddyAllocator> {
        match node {
            NodeId::Stacked => self.stacked_alloc.as_mut(),
            NodeId::Offchip => Some(&mut self.offchip_alloc),
        }
    }

    /// The configuration the kernel was built with.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// The physical memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.map
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Resets statistics (page tables and allocations are untouched);
    /// used between warm-up and measurement.
    pub fn reset_stats(&mut self) {
        self.stats = OsStats::default();
        self.trace.clear();
        self.ssd = SsdModel::default();
    }

    /// The fault-event trace for the metrics timeline.
    pub fn events(&self) -> &EventTrace {
        &self.trace
    }

    /// OS-visible free bytes on one node (zero for an invisible node).
    pub fn free_bytes(&self, node: NodeId) -> u64 {
        self.allocator(node).map_or(0, BuddyAllocator::free_bytes)
    }

    /// Total OS-visible free bytes.
    pub fn total_free_bytes(&self) -> u64 {
        self.free_bytes(NodeId::Stacked) + self.free_bytes(NodeId::Offchip)
    }

    /// The current translation-invalidation generation: unchanged as long
    /// as every translation ever handed out is still valid, bumped by any
    /// event that can retire one (swap-out, page release, process exit,
    /// migration). Callers memoising translations compare generations and
    /// flush on change; demand faults only add mappings and do not bump.
    pub fn mapping_generation(&self) -> u64 {
        self.mapping_generation
    }

    /// Creates a process with the given maximum footprint.
    pub fn spawn(&mut self, footprint: ByteSize) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.processes.push(Some(Process {
            table: PageTable::new(),
            footprint: footprint.bytes(),
        }));
        pid
    }

    /// Terminates a process, freeing all of its resident frames (each is
    /// reported to the hardware via `ISA-Free`).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown pid.
    pub fn exit(&mut self, pid: Pid, now: Cycle, hook: &mut dyn IsaHook) -> Result<(), OsError> {
        let mut proc = Self::slot(pid)
            .and_then(|i| self.processes.get_mut(i)?.take())
            .ok_or(OsError::NoSuchProcess(pid))?;
        self.mapping_generation += 1;
        for frame in proc.table.clear() {
            self.free_frame(frame, now, hook);
        }
        Ok(())
    }

    /// Resident-set size of a process in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown pid.
    pub fn rss(&self, pid: Pid) -> Result<u64, OsError> {
        Ok(self.process(pid)?.table.resident_pages() as u64 * PAGE_SIZE)
    }

    /// Translates without faulting (returns `None` if non-resident).
    pub fn peek_translate(&self, pid: Pid, vaddr: u64) -> Option<u64> {
        self.process(pid).ok()?.table.translate(vaddr)
    }

    /// Touches a virtual address: translates it, demand-allocating or
    /// swapping in as needed.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] or [`OsError::OutOfRange`].
    // lint: hot-path
    pub fn touch(
        &mut self,
        pid: Pid,
        vaddr: u64,
        _write: bool,
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> Result<TouchOutcome, OsError> {
        let proc = self.process(pid)?;
        if vaddr >= proc.footprint {
            return Err(OsError::OutOfRange(vaddr));
        }

        let (frame, fault, stall) = match proc.table.state(vaddr) {
            PageState::Resident { frame } => (frame, None, 0),
            state => {
                // The frame comes first: allocating it may evict a page and
                // queue its SSD write ahead of this fault's read.
                let frame = self.alloc_frame_evicting(now, hook);
                let vpn = PageTable::vpn(vaddr);
                self.install(frame, pid, vpn, now, hook);
                let (kind, event, count, stall) = if state == PageState::Untouched {
                    (
                        FaultKind::Minor,
                        EventKind::MinorFault,
                        &mut self.stats.minor_faults,
                        MINOR_FAULT_LATENCY,
                    )
                } else {
                    (
                        FaultKind::Major,
                        EventKind::MajorFault,
                        &mut self.stats.major_faults,
                        self.ssd.read_page(now),
                    )
                };
                count.inc();
                self.trace.push(now, event, vpn);
                self.stats.fault_stall_cycles.add(stall);
                (frame, Some(kind), stall)
            }
        };
        Ok(TouchOutcome {
            paddr: frame + vaddr % PAGE_SIZE,
            fault,
            stall,
        })
    }

    /// Releases one resident page of a process outright (no swap-out):
    /// the frame is freed and the page returns to the untouched state.
    /// Used for discardable memory such as the buffer cache.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] for an unknown pid; [`OsError::NotMapped`]
    /// if the page is not resident.
    pub fn release_page(
        &mut self,
        pid: Pid,
        vaddr: u64,
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> Result<(), OsError> {
        let proc = self.process_mut(pid)?;
        let frame = proc.table.unmap(vaddr).ok_or(OsError::NotMapped(vaddr))?;
        self.mapping_generation += 1;
        self.free_frame(frame, now, hook);
        Ok(())
    }

    /// Migrates the resident physical page at `page_paddr` to `target`,
    /// returning the new physical page address. Fails with `-ENOMEM` when
    /// the target node has no free page (AutoNUMA semantics, Section
    /// II-B2) — the kernel does **not** evict to make room for a
    /// migration.
    ///
    /// # Errors
    ///
    /// [`OsError::NotMapped`] if no process maps the page;
    /// [`OsError::MigrationEnomem`] if the target node is full.
    pub fn migrate_page(
        &mut self,
        page_paddr: u64,
        target: NodeId,
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> Result<u64, OsError> {
        let frame_base = page_paddr & !(PAGE_SIZE - 1);
        let &(pid, vpn, _) = self
            .reverse
            .get(&frame_base)
            .ok_or(OsError::NotMapped(page_paddr))?;
        let new_frame = match self.alloc_on(target) {
            Some(f) => f,
            None => {
                self.stats.migration_enomem.inc();
                return Err(OsError::MigrationEnomem);
            }
        };
        // The new frame's ISA-Alloc precedes the old frame's ISA-Free.
        self.install(new_frame, pid, vpn, now, hook);
        // Remap: the old translation dies with the move.
        self.mapping_generation += 1;
        self.free_frame(frame_base, now, hook);
        self.stats.migrations.inc();
        Ok(new_frame)
    }

    /// Applies a batch of placement hints from the online guidance tier
    /// (`crate::guidance`), in order. Each hint migrates one page via
    /// [`OsKernel::migrate_page`]; once a target node reports `-ENOMEM`,
    /// remaining hints for *that* node are skipped (the other direction
    /// keeps going), mirroring how a real madvise-style batch degrades.
    /// Unmapped pages (raced by an exit or swap-out) are skipped silently.
    pub fn apply_hints(
        &mut self,
        hints: &[PlacementHint],
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> HintOutcome {
        let mut out = HintOutcome::default();
        // Whether each node (by `NodeId as usize`) has reported -ENOMEM.
        let mut full = [false; 2];
        for hint in hints {
            let full = &mut full[hint.target as usize];
            if *full {
                continue;
            }
            match self.migrate_page(hint.page, hint.target, now, hook) {
                Ok(new_frame) => {
                    match hint.target {
                        NodeId::Stacked => self.stats.hint_promotions.inc(),
                        NodeId::Offchip => self.stats.hint_demotions.inc(),
                    }
                    out.applied.push((hint.page, new_frame, hint.target));
                }
                Err(OsError::MigrationEnomem) => {
                    out.enomem += 1;
                    self.stats.hint_enomem.inc();
                    *full = true;
                }
                // NotMapped (or any future variant): the page is gone;
                // skip the hint.
                Err(_) => {}
            }
        }
        out
    }

    /// The OS-side group ledger, when group-aware placement is enabled.
    pub fn ledger(&self) -> Option<&GroupLedger> {
        self.ledger.as_ref()
    }

    /// Hands the newly allocated `frame` to page `vpn` of `pid`: reports
    /// it with `ISA-Alloc`, charges the ledger, maps it, records it in
    /// the reverse map and queues it, newest, for replacement.
    fn install(&mut self, frame: u64, pid: Pid, vpn: u64, now: Cycle, hook: &mut dyn IsaHook) {
        hook.isa_alloc(frame, PAGE_SIZE, now);
        if let Some(l) = &mut self.ledger {
            l.on_alloc(frame, PAGE_SIZE);
        }
        self.stats.allocs.inc();
        // INVARIANT: callers pass a pid that touch() validated or that the
        // reverse map holds, and either implies the process exists.
        let proc = self.process_mut(pid).expect("live process");
        proc.table.map(vpn * PAGE_SIZE, frame);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.reverse.insert(frame, (pid, vpn, stamp));
        self.fifo.push_back((frame, stamp));
    }

    fn alloc_frame_evicting(&mut self, now: Cycle, hook: &mut dyn IsaHook) -> u64 {
        loop {
            if let Some(f) = self.alloc_frame_scored() {
                return f;
            }
            self.evict_one(now, hook);
        }
    }

    /// Allocates one frame; with group-aware placement enabled, peeks a
    /// few candidate frames from distinct free blocks and allocates the
    /// one whose segment groups lose the least cacheability
    /// (Section VI-G).
    fn alloc_frame_scored(&mut self) -> Option<u64> {
        const CANDIDATES: usize = 6;
        if self.ledger.is_none() {
            return self.alloc_page();
        }
        // Candidate frames from the preferred node.
        // INVARIANT: scored allocation runs on the page-fault path only —
        // faults are rare after warm-up, so this staging Vec (≤ 6 entries)
        // is amortized off the per-access hot path.
        let mut cands = Vec::new();
        let order: [NodeId; 2] = if self.cfg.preference == NodePreference::FastFirst {
            [NodeId::Stacked, NodeId::Offchip]
        } else {
            [NodeId::Offchip, NodeId::Stacked]
        };
        for node in order {
            if cands.len() >= CANDIDATES {
                break;
            }
            let want = CANDIDATES - cands.len();
            if let Some(a) = self.allocator_mut(node) {
                cands.extend(a.peek_candidates(want));
            }
        }
        // INVARIANT: the ledger was checked Some at the top of this function.
        let ledger = self.ledger.as_ref().expect("checked above");
        let mut scored: Vec<(i64, u64)> = cands
            .into_iter()
            .map(|f| (ledger.score_frame(f), f))
            // INVARIANT: fault-path only, ≤ 6 candidates — see above.
            .collect();
        scored.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        for (_, f) in scored {
            let node = self.map.node_of(f);
            if self
                .allocator_mut(node)
                .is_some_and(|a| a.alloc_exact_page(f))
            {
                return Some(f);
            }
        }
        // No candidate committed: fall back to the plain path.
        self.alloc_page()
    }

    fn evict_one(&mut self, now: Cycle, hook: &mut dyn IsaHook) {
        loop {
            let (frame, stamp) = self
                .fifo
                .pop_front()
                // INVARIANT: allocation can only fail while pages are resident.
                .expect("nothing resident but allocation failed");
            let Some(&(pid, vpn, _)) = self.reverse.get(&frame).filter(|e| e.2 == stamp) else {
                continue; // stale entry (freed, migrated or mapped again)
            };
            self.mapping_generation += 1;
            // INVARIANT: reverse[frame] = (pid, vpn) implies the process exists.
            let proc = self.process_mut(pid).expect("reverse map is consistent");
            let freed = proc.table.swap_out(vpn * PAGE_SIZE);
            debug_assert_eq!(freed, frame);
            // The dirty page is written to the SSD asynchronously but
            // still consumes device throughput.
            self.ssd.write_page(now);
            self.stats.swap_outs.inc();
            self.free_frame(frame, now, hook);
            return;
        }
    }

    /// Frees a frame its page no longer holds: drops it from the reverse
    /// map, reports it with `ISA-Free` and returns it to its allocator.
    fn free_frame(&mut self, frame: u64, now: Cycle, hook: &mut dyn IsaHook) {
        self.reverse.remove(&frame);
        hook.isa_free(frame, PAGE_SIZE, now);
        if let Some(l) = &mut self.ledger {
            l.on_free(frame, PAGE_SIZE);
        }
        self.stats.frees.inc();
        self.allocator_mut(self.map.node_of(frame))
            // INVARIANT: a frame was allocated from its node's allocator.
            .expect("a hidden node holds no frames")
            .free(frame, 0);
    }

    fn alloc_on(&mut self, node: NodeId) -> Option<u64> {
        self.allocator_mut(node)?.alloc(0)
    }

    /// Allocates one page, trying nodes in the configured preference
    /// order.
    fn alloc_page(&mut self) -> Option<u64> {
        let (first, second) = match self.cfg.preference {
            NodePreference::FastFirst => (NodeId::Stacked, NodeId::Offchip),
            NodePreference::SlowFirst => (NodeId::Offchip, NodeId::Stacked),
            // Keep free fractions even across nodes so live data (and
            // therefore free space) is spread uniformly over the physical
            // address space.
            NodePreference::Balanced => {
                if self.free_fraction(NodeId::Stacked) > self.free_fraction(NodeId::Offchip) {
                    (NodeId::Stacked, NodeId::Offchip)
                } else {
                    (NodeId::Offchip, NodeId::Stacked)
                }
            }
        };
        self.alloc_on(first).or_else(|| self.alloc_on(second))
    }

    /// The node's free fraction; -1 for a hidden node, so `Balanced`
    /// never prefers it.
    fn free_fraction(&self, node: NodeId) -> f64 {
        self.allocator(node)
            .map_or(-1.0, |a| a.free_bytes() as f64 / a.total_bytes() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{NullHook, RecordingHook};

    fn small_kernel(cfg: OsConfig) -> OsKernel {
        OsKernel::new(cfg, MemoryMap::new(ByteSize::mib(4), ByteSize::mib(8)))
    }

    #[test]
    fn first_touch_minor_fault_then_resident() {
        let mut os = small_kernel(OsConfig::default());
        let mut hook = RecordingHook::default();
        let pid = os.spawn(ByteSize::mib(1));
        let t1 = os.touch(pid, 0x1234, false, 0, &mut hook).unwrap();
        assert_eq!(t1.fault, Some(FaultKind::Minor));
        assert_eq!(t1.paddr % PAGE_SIZE, 0x234);
        let t2 = os.touch(pid, 0x1000, false, 0, &mut hook).unwrap();
        assert_eq!(t2.fault, None);
        assert_eq!(t2.paddr, t1.paddr & !(PAGE_SIZE - 1));
        assert_eq!(hook.allocs.len(), 1);
    }

    #[test]
    fn footprint_bound_enforced() {
        let mut os = small_kernel(OsConfig::default());
        let pid = os.spawn(ByteSize::bytes_exact(PAGE_SIZE));
        assert_eq!(
            os.touch(pid, PAGE_SIZE, false, 0, &mut NullHook),
            Err(OsError::OutOfRange(PAGE_SIZE))
        );
    }

    #[test]
    fn unknown_pid_rejected() {
        let mut os = small_kernel(OsConfig::default());
        assert_eq!(
            os.touch(Pid(99), 0, false, 0, &mut NullHook),
            Err(OsError::NoSuchProcess(Pid(99)))
        );
    }

    #[test]
    fn over_capacity_footprint_thrashes_with_major_faults() {
        let mut os = small_kernel(OsConfig::default());
        let mut hook = NullHook;
        // Footprint double the 12MiB physical capacity.
        let pid = os.spawn(ByteSize::mib(24));
        let pages = (24 << 20) / PAGE_SIZE;
        for p in 0..pages {
            os.touch(pid, p * PAGE_SIZE, true, 0, &mut hook).unwrap();
        }
        assert_eq!(
            os.stats().major_faults.value(),
            0,
            "first pass is all minor"
        );
        assert!(os.stats().swap_outs.value() > 0, "capacity pressure evicts");
        // Second pass re-touches swapped-out pages: major faults.
        for p in 0..pages {
            os.touch(pid, p * PAGE_SIZE, true, 0, &mut hook).unwrap();
        }
        assert!(os.stats().major_faults.value() > 0);
    }

    #[test]
    fn fits_in_memory_never_major_faults() {
        let mut os = small_kernel(OsConfig::default());
        let pid = os.spawn(ByteSize::mib(8));
        for round in 0..3 {
            for p in 0..(8 << 20) / PAGE_SIZE {
                let t = os
                    .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                    .unwrap();
                if round > 0 {
                    assert_eq!(t.fault, None);
                }
            }
        }
        assert_eq!(os.stats().major_faults.value(), 0);
    }

    #[test]
    fn exit_frees_everything_via_isa_free() {
        let mut os = small_kernel(OsConfig::default());
        let mut hook = RecordingHook::default();
        let pid = os.spawn(ByteSize::mib(1));
        for p in 0..16 {
            os.touch(pid, p * PAGE_SIZE, false, 0, &mut hook).unwrap();
        }
        let before = os.total_free_bytes();
        os.exit(pid, 0, &mut hook).unwrap();
        assert_eq!(os.total_free_bytes(), before + 16 * PAGE_SIZE);
        assert_eq!(hook.frees.len(), 16);
        assert!(os.process(pid).is_err());
    }

    #[test]
    fn rss_tracks_resident_pages() {
        let mut os = small_kernel(OsConfig::default());
        let pid = os.spawn(ByteSize::mib(1));
        assert_eq!(os.rss(pid).unwrap(), 0);
        os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
        os.touch(pid, 5 * PAGE_SIZE, false, 0, &mut NullHook)
            .unwrap();
        assert_eq!(os.rss(pid).unwrap(), 2 * PAGE_SIZE);
    }

    #[test]
    fn offchip_only_visibility_never_uses_stacked() {
        let cfg = OsConfig {
            visibility: Visibility::OffchipOnly,
            preference: NodePreference::FastFirst,
            ..OsConfig::default()
        };
        let mut os = small_kernel(cfg);
        assert_eq!(os.free_bytes(NodeId::Stacked), 0);
        assert_eq!(os.total_free_bytes(), ByteSize::mib(8).bytes());
        let pid = os.spawn(ByteSize::mib(1));
        for p in 0..64 {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            assert_eq!(os.memory_map().node_of(t.paddr), NodeId::Offchip);
        }
    }

    #[test]
    fn fast_first_fills_stacked_first() {
        let cfg = OsConfig {
            preference: NodePreference::FastFirst,
            ..OsConfig::default()
        };
        let mut os = small_kernel(cfg);
        let pid = os.spawn(ByteSize::mib(6));
        // Touch 4MiB: should all land in stacked.
        for p in 0..(4 << 20) / PAGE_SIZE {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            assert_eq!(os.memory_map().node_of(t.paddr), NodeId::Stacked);
        }
        // Next page spills to off-chip.
        let t = os
            .touch(pid, (4 << 20) + 42, false, 0, &mut NullHook)
            .unwrap();
        assert_eq!(os.memory_map().node_of(t.paddr), NodeId::Offchip);
    }

    #[test]
    fn balanced_preference_spreads_allocations() {
        let mut os = small_kernel(OsConfig::default());
        let pid = os.spawn(ByteSize::mib(6));
        let mut stacked = 0;
        let mut offchip = 0;
        for p in 0..(6 << 20) / PAGE_SIZE {
            let t = os
                .touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
            match os.memory_map().node_of(t.paddr) {
                NodeId::Stacked => stacked += 1,
                NodeId::Offchip => offchip += 1,
            }
        }
        // 6MiB over a 4:8 split balanced by free fraction: stacked gets
        // roughly a third.
        let frac = stacked as f64 / (stacked + offchip) as f64;
        assert!((0.2..0.5).contains(&frac), "stacked fraction {frac}");
    }

    #[test]
    fn migration_moves_page_and_reports_isa() {
        let cfg = OsConfig {
            preference: NodePreference::SlowFirst,
            ..OsConfig::default()
        };
        let mut os = small_kernel(cfg);
        let mut hook = RecordingHook::default();
        let pid = os.spawn(ByteSize::mib(1));
        let t = os.touch(pid, 0, false, 0, &mut hook).unwrap();
        assert_eq!(os.memory_map().node_of(t.paddr), NodeId::Offchip);
        let new = os
            .migrate_page(t.paddr, NodeId::Stacked, 0, &mut hook)
            .unwrap();
        assert_eq!(os.memory_map().node_of(new), NodeId::Stacked);
        assert_eq!(os.peek_translate(pid, 0), Some(new));
        assert_eq!(os.stats().migrations.value(), 1);
        // ISA traffic: alloc of new, free of old.
        assert_eq!(hook.allocs.last(), Some(&(new, PAGE_SIZE)));
        assert_eq!(hook.frees.last(), Some(&(t.paddr, PAGE_SIZE)));
    }

    #[test]
    fn migration_enomem_when_target_full() {
        let cfg = OsConfig {
            preference: NodePreference::FastFirst,
            ..OsConfig::default()
        };
        let mut os = small_kernel(cfg);
        let pid = os.spawn(ByteSize::mib(6));
        // Fill stacked completely, spilling one page to off-chip.
        for p in 0..=(4 << 20) / PAGE_SIZE {
            os.touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
        }
        let off_paddr = os.peek_translate(pid, 4 << 20).unwrap();
        assert_eq!(os.memory_map().node_of(off_paddr), NodeId::Offchip);
        assert_eq!(
            os.migrate_page(off_paddr, NodeId::Stacked, 0, &mut NullHook),
            Err(OsError::MigrationEnomem)
        );
        assert_eq!(os.stats().migration_enomem.value(), 1);
    }

    #[test]
    fn apply_hints_stops_promoting_after_enomem_but_keeps_demoting() {
        let cfg = OsConfig {
            preference: NodePreference::FastFirst,
            ..OsConfig::default()
        };
        let mut os = OsKernel::new(cfg, MemoryMap::new(ByteSize::mib(2), ByteSize::mib(8)));
        let stacked_pages = (2 << 20) / PAGE_SIZE;
        let pid = os.spawn(ByteSize::mib(4));
        // Fill the stacked node, then fault four pages off-chip.
        for p in 0..stacked_pages + 4 {
            os.touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                .unwrap();
        }
        let frames: Vec<u64> = [0, 1, stacked_pages, stacked_pages + 1, stacked_pages + 2]
            .iter()
            .map(|&p| os.peek_translate(pid, p * PAGE_SIZE).unwrap())
            .collect();
        let [s1, s2, o1, o2, gone] = frames[..] else {
            unreachable!()
        };
        let node = |f| os.memory_map().node_of(f);
        assert_eq!([node(s1), node(s2)], [NodeId::Stacked; 2]);
        assert_eq!([node(o1), node(o2), node(gone)], [NodeId::Offchip; 3]);
        os.release_page(pid, (stacked_pages + 2) * PAGE_SIZE, 0, &mut NullHook)
            .unwrap();

        let hint = |page, target| PlacementHint { page, target };
        let out = os.apply_hints(
            &[
                hint(gone, NodeId::Stacked), // unmapped: skipped
                hint(o1, NodeId::Stacked),   // -ENOMEM: the stacked node is full
                hint(s1, NodeId::Offchip),   // demotions still apply
                hint(o2, NodeId::Stacked),   // skipped, though s1 left room
                hint(s2, NodeId::Offchip),
            ],
            0,
            &mut NullHook,
        );
        assert_eq!(out.enomem, 1);
        let moved: Vec<(u64, NodeId)> = out.applied.iter().map(|&(f, _, t)| (f, t)).collect();
        assert_eq!(moved, [(s1, NodeId::Offchip), (s2, NodeId::Offchip)]);
        for &(_, new, _) in &out.applied {
            assert_eq!(os.memory_map().node_of(new), NodeId::Offchip);
        }
        assert_eq!(os.peek_translate(pid, stacked_pages * PAGE_SIZE), Some(o1));
        assert_eq!(
            os.peek_translate(pid, (stacked_pages + 1) * PAGE_SIZE),
            Some(o2)
        );
        assert_eq!(os.free_bytes(NodeId::Stacked), 2 * PAGE_SIZE);
        let s = os.stats();
        assert_eq!(s.hint_promotions.value(), 0);
        assert_eq!(s.hint_demotions.value(), 2);
        assert_eq!(s.hint_enomem.value(), 1);
        assert_eq!(s.migration_enomem.value(), 1);
    }

    #[test]
    fn group_aware_first_fault_follows_the_preference() {
        // Six free 2MB blocks per node, so every candidate of the first
        // fault comes from the first node in the candidate order.
        let (stacked, offchip) = (ByteSize::mib(12), ByteSize::mib(24));
        let geom = SegmentGeometry::new(stacked, offchip, ByteSize::kib(2));
        for (preference, want) in [
            (NodePreference::FastFirst, NodeId::Stacked),
            (NodePreference::SlowFirst, NodeId::Offchip),
            (NodePreference::Balanced, NodeId::Offchip),
        ] {
            let cfg = OsConfig {
                preference,
                group_placement: Some(geom),
                ..OsConfig::default()
            };
            let mut os = OsKernel::new(cfg, MemoryMap::new(stacked, offchip));
            let pid = os.spawn(ByteSize::mib(1));
            let t = os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
            assert_eq!(t.fault, Some(FaultKind::Minor));
            assert_eq!(os.memory_map().node_of(t.paddr), want, "{preference:?}");
        }
    }

    #[test]
    fn group_aware_placement_preserves_cache_capable_groups() {
        // 1:4 groups of 5 slots over the kernel's own memory map.
        let geom = SegmentGeometry::new(ByteSize::mib(2), ByteSize::mib(8), ByteSize::kib(2));
        let map = MemoryMap::new(ByteSize::mib(2), ByteSize::mib(8));
        let run = |placed: bool| {
            let cfg = OsConfig {
                group_placement: placed.then_some(geom),
                ..OsConfig::default()
            };
            let mut os = OsKernel::new(cfg, map);
            let pid = os.spawn(ByteSize::mib(9));
            // Allocate 90% of physical memory.
            for p in 0..(9 << 20) / PAGE_SIZE {
                os.touch(pid, p * PAGE_SIZE, true, 0, &mut NullHook)
                    .unwrap();
            }
            os
        };
        let placed = run(true);
        let scattered = run(false);
        assert!(placed.ledger().is_some());
        assert!(scattered.ledger().is_none());
        // The scored allocator keeps strictly more groups cache-capable
        // than random placement would on average; verify against its own
        // ledger (rebuild one for the scattered kernel is unnecessary --
        // just check the placed fraction is high given 10% free).
        let frac = placed.ledger().unwrap().cache_capable_fraction();
        // 10% free spread over 5-slot groups: random gives
        // 1-(0.9)^5 = 0.41; scoring should do better.
        assert!(frac > 0.41, "placed fraction {frac} should beat random");
    }

    #[test]
    fn mapping_generation_tracks_invalidations_only() {
        let mut os = small_kernel(OsConfig::default());
        let mut hook = RecordingHook::default();
        let pid = os.spawn(ByteSize::mib(1));
        let g0 = os.mapping_generation();
        // Demand faults only add mappings: no bump.
        os.touch(pid, 0, false, 0, &mut hook).unwrap();
        os.touch(pid, PAGE_SIZE, false, 0, &mut hook).unwrap();
        assert_eq!(os.mapping_generation(), g0);
        // A release retires a translation: bump.
        os.release_page(pid, 0, 0, &mut hook).unwrap();
        let g1 = os.mapping_generation();
        assert!(g1 > g0);
        // Migration remaps: bump.
        let t = os.touch(pid, PAGE_SIZE, false, 0, &mut hook).unwrap();
        let target = match os.memory_map().node_of(t.paddr) {
            NodeId::Stacked => NodeId::Offchip,
            NodeId::Offchip => NodeId::Stacked,
        };
        os.migrate_page(t.paddr, target, 0, &mut hook).unwrap();
        let g2 = os.mapping_generation();
        assert!(g2 > g1);
        // Exit clears the whole table: bump.
        os.exit(pid, 0, &mut hook).unwrap();
        assert!(os.mapping_generation() > g2);
    }

    #[test]
    fn eviction_bumps_mapping_generation() {
        let mut os = small_kernel(OsConfig::default());
        let pid = os.spawn(ByteSize::mib(24));
        let g0 = os.mapping_generation();
        for p in 0..(24 << 20) / PAGE_SIZE {
            os.touch(pid, p * PAGE_SIZE, true, 0, &mut NullHook)
                .unwrap();
        }
        assert!(os.stats().swap_outs.value() > 0);
        assert!(os.mapping_generation() > g0, "swap-outs must invalidate");
    }

    #[test]
    fn fifo_skips_entries_of_frames_freed_and_mapped_again() {
        let cfg = OsConfig {
            visibility: Visibility::OffchipOnly,
            ..OsConfig::default()
        };
        let mut os = OsKernel::new(cfg, MemoryMap::new(ByteSize::mib(2), ByteSize::mib(2)));
        let pages = 256;
        let touch_all = |os: &mut OsKernel, pid: Pid, n: u64| {
            for p in 0..n {
                os.touch(pid, p * PAGE_SIZE, false, 0, &mut NullHook)
                    .unwrap();
            }
        };
        let a1 = os.spawn(ByteSize::mib(1));
        let a2 = os.spawn(ByteSize::mib(1));
        touch_all(&mut os, a1, pages);
        touch_all(&mut os, a2, pages);
        os.exit(a1, 0, &mut NullHook).unwrap();
        // b reuses a1's frames, then faults once more with memory full.
        let b = os.spawn(ByteSize::mib(2));
        touch_all(&mut os, b, pages + 1);
        assert_eq!(os.stats().swap_outs.value(), 1);
        // a1's queue entries are stale: the oldest live page, a2's first,
        // is the victim, and every page b just faulted in stays resident.
        assert_eq!(os.peek_translate(a2, 0), None);
        for p in 0..=pages {
            assert!(os.peek_translate(b, p * PAGE_SIZE).is_some(), "b vpn {p}");
        }
    }

    #[test]
    fn fault_stall_cycles_accumulate() {
        let mut os = small_kernel(OsConfig::default());
        let pid = os.spawn(ByteSize::mib(1));
        os.touch(pid, 0, false, 0, &mut NullHook).unwrap();
        assert_eq!(os.stats().fault_stall_cycles.value(), MINOR_FAULT_LATENCY);
    }
}
