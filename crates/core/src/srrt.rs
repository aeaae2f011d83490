//! The Segment Restricted Remapping Table (SRRT).
//!
//! One [`SrrtEntry`] per segment group holds the paper's Figure 7 state:
//! remapping tag bits (stored here as a permutation `remap[logical] =
//! physical`), the Alloc Bit Vector (ABV), the mode bit, the dirty bit and
//! the shared competing counter of the PoM baseline. Entries are pure
//! metadata — data movement costs are charged by the policies.

use chameleon_simkit::Cycle;
use serde::{Deserialize, Serialize};

/// Maximum slots per segment group (supports capacity ratios up to 1:7).
pub const MAX_SLOTS: usize = 8;

/// A segment group's operating mode (the SRRT mode bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Part-of-memory: every segment is OS-visible; hot segments swap.
    Pom,
    /// The stacked slot caches one off-chip segment of the group.
    Cache,
}

/// Per-group SRRT state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SrrtEntry {
    /// `remap[logical] = physical` slot permutation (the tag bits).
    remap: [u8; MAX_SLOTS],
    /// Inverse permutation, `inv[physical] = logical`, maintained in
    /// lockstep with `remap` so [`SrrtEntry::logical_in`] — queried on
    /// every stacked-slot reference — is a single array read instead of a
    /// linear scan (hardware reads the tag bits associatively; this is
    /// the software equivalent).
    inv: [u8; MAX_SLOTS],
    /// Number of live slots.
    slots: u8,
    /// Alloc Bit Vector: bit `l` set iff logical segment `l` is allocated.
    abv: u8,
    /// Mode bit.
    mode: Mode,
    /// Dirty bit for the cached copy (cache mode only).
    dirty: bool,
    /// Logical id currently cached in the stacked physical slot, if any.
    cached: Option<u8>,
    /// Competing-counter candidate (logical id).
    cand: u8,
    /// Competing-counter value.
    count: u16,
    /// Cycle until which an in-flight swap/fill occupies this group.
    busy_until: Cycle,
    /// Logical segments currently in transit (`NO_TRANSIT` = unused).
    transit: [u8; 2],
}

/// Sentinel for an unused transit slot.
const NO_TRANSIT: u8 = u8::MAX;

impl SrrtEntry {
    /// A fresh identity-mapped entry in PoM mode with nothing allocated.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0 or exceeds [`MAX_SLOTS`].
    pub fn new(slots: u8) -> Self {
        assert!(
            (1..=MAX_SLOTS as u8).contains(&slots),
            "slots must be 1..={MAX_SLOTS}, got {slots}"
        );
        let mut remap = [0u8; MAX_SLOTS];
        for (i, r) in remap.iter_mut().enumerate() {
            *r = i as u8;
        }
        Self {
            remap,
            inv: remap,
            slots,
            abv: 0,
            mode: Mode::Pom,
            dirty: false,
            cached: None,
            cand: 0,
            count: 0,
            busy_until: 0,
            transit: [NO_TRANSIT; 2],
        }
    }

    /// Number of slots in this group.
    pub fn slots(&self) -> u8 {
        self.slots
    }

    /// Physical slot currently holding logical segment `l`'s home data.
    // lint: hot-path
    pub fn physical_of(&self, l: u8) -> u8 {
        debug_assert!(l < self.slots);
        self.remap[l as usize]
    }

    /// Logical segment whose home data occupies physical slot `p`.
    // lint: hot-path
    pub fn logical_in(&self, p: u8) -> u8 {
        debug_assert!(p < self.slots);
        self.inv[p as usize]
    }

    /// Swaps the homes of logical segments `a` and `b`.
    // lint: hot-path
    pub fn swap_homes(&mut self, a: u8, b: u8) {
        debug_assert!(a < self.slots && b < self.slots);
        self.remap.swap(a as usize, b as usize);
        self.inv[self.remap[a as usize] as usize] = a;
        self.inv[self.remap[b as usize] as usize] = b;
    }

    /// Marks logical segment `l` allocated or free.
    pub fn set_allocated(&mut self, l: u8, allocated: bool) {
        debug_assert!(l < self.slots);
        if allocated {
            self.abv |= 1 << l;
        } else {
            self.abv &= !(1 << l);
        }
    }

    /// Whether logical segment `l` is allocated.
    pub fn is_allocated(&self, l: u8) -> bool {
        debug_assert!(l < self.slots);
        self.abv & (1 << l) != 0
    }

    /// Whether every segment in the group is allocated.
    pub fn all_allocated(&self) -> bool {
        self.abv == ((1u16 << self.slots) - 1) as u8
    }

    /// Some free logical segment other than `except`, if one exists.
    pub fn free_logical_except(&self, except: u8) -> Option<u8> {
        (0..self.slots).find(|&l| l != except && !self.is_allocated(l))
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Sets the mode, resetting the competing counter on change.
    pub fn set_mode(&mut self, mode: Mode) {
        if self.mode != mode {
            self.count = 0;
            self.cand = 0;
        }
        self.mode = mode;
    }

    /// The logical segment cached in the stacked slot (cache mode).
    pub fn cached(&self) -> Option<u8> {
        self.cached
    }

    /// Installs or clears the cached segment; clears the dirty bit.
    pub fn set_cached(&mut self, l: Option<u8>) {
        self.cached = l;
        self.dirty = false;
    }

    /// The cache-mode dirty bit.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the cached copy dirty.
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Competing-counter update for a PoM-mode access to logical `l`
    /// currently resident off-chip. Returns `true` when the counter has
    /// reached `threshold` and `l` should be swapped into the stacked
    /// slot (the counter then resets).
    pub fn note_offchip_access(&mut self, l: u8, threshold: u16) -> bool {
        if self.cand == l {
            self.count = self.count.saturating_add(1);
        } else if self.count > 0 {
            self.count -= 1;
        } else {
            self.cand = l;
            self.count = 1;
        }
        if self.cand == l && self.count >= threshold {
            self.count = 0;
            true
        } else {
            false
        }
    }

    /// Competing-counter decay on a stacked-slot hit.
    pub fn note_stacked_access(&mut self) {
        self.count = self.count.saturating_sub(1);
    }

    /// Raw shared-counter value (the Figure 7 field).
    pub fn counter(&self) -> u16 {
        self.count
    }

    /// Sets the raw shared-counter value (used when unpacking a
    /// hardware-encoded entry).
    pub fn set_counter(&mut self, value: u16) {
        self.count = value;
    }

    /// Whether a bulk transfer is still in flight at `now` (no new swap
    /// or fill may start for this group until it drains).
    pub fn is_busy(&self, now: Cycle) -> bool {
        now < self.busy_until
    }

    /// Records an in-flight transfer of up to two logical segments,
    /// completing at `until`.
    pub fn set_transit(&mut self, a: u8, b: Option<u8>, until: Cycle) {
        self.busy_until = self.busy_until.max(until);
        self.transit = [a, b.unwrap_or(NO_TRANSIT)];
    }

    /// Whether logical segment `l` is one of the segments in transit at
    /// `now`.
    pub fn in_transit(&self, l: u8, now: Cycle) -> bool {
        self.is_busy(now) && (self.transit[0] == l || self.transit[1] == l)
    }

    /// Physical slot where an in-transit segment's data can still be
    /// found: for a swapped pair that is the partner's (post-swap) slot,
    /// i.e. the segment's own pre-swap location; for a single-segment
    /// transfer the mapping is unchanged.
    pub fn pre_transit_physical(&self, l: u8) -> u8 {
        let partner = if self.transit[0] == l {
            self.transit[1]
        } else if self.transit[1] == l {
            self.transit[0]
        } else {
            NO_TRANSIT
        };
        if partner == NO_TRANSIT {
            self.physical_of(l)
        } else {
            self.physical_of(partner)
        }
    }

    /// Marks all in-flight transfers complete (warm-up settling).
    pub fn clear_busy(&mut self) {
        self.busy_until = 0;
        self.transit = [NO_TRANSIT; 2];
    }

    /// Debug invariant: `remap` is a permutation of `0..slots` and `inv`
    /// is its inverse.
    pub fn check_permutation(&self) -> bool {
        let mut seen = [false; MAX_SLOTS];
        for l in 0..self.slots {
            let p = self.remap[l as usize];
            if p >= self.slots || seen[p as usize] {
                return false;
            }
            seen[p as usize] = true;
            if self.inv[p as usize] != l {
                return false;
            }
        }
        true
    }
}

/// The full table: one entry per segment group.
///
/// The table keeps the per-group mode census (Figure 16) as two counters
/// that every write updates, so reading it costs nothing however many
/// groups there are. An entry changes only through [`Self::store`] (and
/// [`Self::clear_busy_all`], which touches neither counted field), so no
/// mode or cached copy can change behind the counters' back.
#[derive(Debug, Clone)]
pub struct SegmentGroupTable {
    entries: Vec<SrrtEntry>,
    slots: u8,
    /// Groups in cache mode.
    cache_groups: u64,
    /// Groups in cache mode whose stacked slot holds no cached copy.
    empty_cache_groups: u64,
}

impl SegmentGroupTable {
    /// Builds a table of `groups` identity-mapped entries in `mode`, with
    /// nothing allocated or cached.
    pub fn with_mode(groups: u64, slots: u8, mode: Mode) -> Self {
        let mut entry = SrrtEntry::new(slots);
        entry.set_mode(mode);
        let cache_groups = if mode == Mode::Cache { groups } else { 0 };
        Self {
            entries: vec![entry; groups as usize],
            slots,
            cache_groups,
            empty_cache_groups: cache_groups,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slots per group.
    pub fn slots_per_group(&self) -> u8 {
        self.slots
    }

    /// Shared access to a group entry.
    pub fn entry(&self, group: u64) -> &SrrtEntry {
        &self.entries[group as usize]
    }

    /// Writes a group's entry, updating the mode census.
    // lint: hot-path
    pub fn store(&mut self, group: u64, entry: SrrtEntry) {
        let old = std::mem::replace(&mut self.entries[group as usize], entry);
        let cache = |e: &SrrtEntry| u64::from(e.mode() == Mode::Cache);
        let empty = |e: &SrrtEntry| u64::from(e.mode() == Mode::Cache && e.cached().is_none());
        self.cache_groups = self.cache_groups + cache(&entry) - cache(&old);
        self.empty_cache_groups = self.empty_cache_groups + empty(&entry) - empty(&old);
    }

    /// Marks every group's in-flight transfers complete (warm-up
    /// settling); modes and cached copies are untouched.
    pub fn clear_busy_all(&mut self) {
        self.entries.iter_mut().for_each(SrrtEntry::clear_busy);
    }

    /// Iterates all entries.
    pub fn iter(&self) -> impl Iterator<Item = &SrrtEntry> {
        self.entries.iter()
    }

    /// Counts groups currently in cache mode.
    pub fn cache_mode_groups(&self) -> u64 {
        debug_assert_eq!(
            self.cache_groups,
            self.iter().filter(|e| e.mode() == Mode::Cache).count() as u64,
            "SRRT cache-mode census drifted from the table"
        );
        self.cache_groups
    }

    /// Counts cache-mode groups holding no cached copy: the only groups
    /// whose stacked slot holds no data.
    pub fn empty_cache_groups(&self) -> u64 {
        debug_assert_eq!(
            self.empty_cache_groups,
            self.iter()
                .filter(|e| e.mode() == Mode::Cache && e.cached().is_none())
                .count() as u64,
            "SRRT empty-cache census drifted from the table"
        );
        self.empty_cache_groups
    }

    /// Metadata size in bytes of a hardware SRRT with this many groups
    /// (paper Figure 7: one [`crate::encoding::entry_bits`] entry per
    /// group), for the overhead discussion of Sections V and VII.
    pub fn metadata_bytes(&self) -> u64 {
        (u64::from(crate::encoding::entry_bits(self.slots)) * self.entries.len() as u64).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_identity_pom() {
        let e = SrrtEntry::new(6);
        assert_eq!(e.mode(), Mode::Pom);
        for l in 0..6 {
            assert_eq!(e.physical_of(l), l);
            assert_eq!(e.logical_in(l), l);
            assert!(!e.is_allocated(l));
        }
        assert!(e.check_permutation());
        assert!(!e.all_allocated());
    }

    #[test]
    fn swap_homes_keeps_permutation() {
        let mut e = SrrtEntry::new(6);
        e.swap_homes(0, 3);
        assert_eq!(e.physical_of(0), 3);
        assert_eq!(e.physical_of(3), 0);
        assert_eq!(e.logical_in(0), 3);
        assert!(e.check_permutation());
        e.swap_homes(3, 5);
        assert_eq!(e.physical_of(3), 5);
        assert_eq!(e.physical_of(5), 0);
        assert!(e.check_permutation());
    }

    #[test]
    fn abv_bookkeeping() {
        let mut e = SrrtEntry::new(3);
        e.set_allocated(0, true);
        e.set_allocated(2, true);
        assert!(e.is_allocated(0));
        assert!(!e.is_allocated(1));
        assert!(e.is_allocated(2));
        assert_eq!(e.free_logical_except(1), None);
        assert_eq!(e.free_logical_except(0), Some(1));
        e.set_allocated(1, true);
        assert!(e.all_allocated());
        e.set_allocated(0, false);
        assert!(!e.all_allocated());
    }

    #[test]
    fn mode_change_resets_counter() {
        let mut e = SrrtEntry::new(6);
        e.note_offchip_access(2, 100);
        e.note_offchip_access(2, 100);
        e.set_mode(Mode::Cache);
        e.set_mode(Mode::Pom);
        // Counter was reset: a fresh candidate needs `threshold` accesses.
        assert!(!e.note_offchip_access(2, 2));
        assert!(e.note_offchip_access(2, 2));
    }

    #[test]
    fn competing_counter_promotes_after_threshold() {
        let mut e = SrrtEntry::new(6);
        assert!(!e.note_offchip_access(3, 3)); // cand=3, count=1
        assert!(!e.note_offchip_access(3, 3)); // count=2
        assert!(e.note_offchip_access(3, 3)); // count=3 -> promote
                                              // Counter reset after promotion.
        assert!(!e.note_offchip_access(3, 3));
    }

    #[test]
    fn competing_counter_competes() {
        let mut e = SrrtEntry::new(6);
        e.note_offchip_access(3, 10); // cand=3 count=1
        e.note_offchip_access(4, 10); // count=0
        e.note_offchip_access(4, 10); // cand=4 count=1
        assert!(!e.note_offchip_access(3, 10)); // count=0
                                                // Stacked hits decay the counter.
        e.note_offchip_access(4, 10);
        e.note_stacked_access();
        assert!(!e.note_offchip_access(4, 2)); // count back to 1... then 2? promote
    }

    #[test]
    fn dirty_and_cached_flags() {
        let mut e = SrrtEntry::new(6);
        e.set_cached(Some(4));
        assert_eq!(e.cached(), Some(4));
        assert!(!e.is_dirty());
        e.mark_dirty();
        assert!(e.is_dirty());
        e.set_cached(None);
        assert!(!e.is_dirty(), "clearing the cache clears dirty");
    }

    #[test]
    fn busy_until_is_monotonic() {
        let mut e = SrrtEntry::new(6);
        e.set_transit(1, None, 100);
        e.set_transit(2, Some(3), 50);
        assert!(e.is_busy(99));
        assert!(!e.is_busy(100));
    }

    #[test]
    fn transit_membership() {
        let mut e = SrrtEntry::new(6);
        e.set_transit(2, Some(4), 100);
        assert!(e.in_transit(2, 50));
        assert!(e.in_transit(4, 50));
        assert!(!e.in_transit(3, 50));
        assert!(!e.in_transit(2, 100), "transit over once drained");
        e.clear_busy();
        assert!(!e.in_transit(2, 0));
    }

    #[test]
    fn table_mode_census() {
        let mut t = SegmentGroupTable::with_mode(10, 6, Mode::Pom);
        assert_eq!(t.len(), 10);
        assert_eq!(t.cache_mode_groups(), 0);
        for g in [3, 7] {
            let mut e = *t.entry(g);
            e.set_mode(Mode::Cache);
            t.store(g, e);
        }
        assert_eq!(t.cache_mode_groups(), 2);
    }

    #[test]
    fn census_counts_empty_cache_groups() {
        let mut t = SegmentGroupTable::with_mode(4, 6, Mode::Cache);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (4, 4));
        let mut e = *t.entry(1);
        e.set_cached(Some(2));
        t.store(1, e);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (4, 3));
        // Leaving cache mode with a copy still recorded counts as neither.
        e.set_mode(Mode::Pom);
        t.store(1, e);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (3, 3));
        e.set_cached(None);
        t.store(1, e);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (3, 3));
        t.clear_busy_all();
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (3, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "census drifted")]
    fn census_is_checked_against_the_table() {
        let mut t = SegmentGroupTable::with_mode(4, 6, Mode::Pom);
        t.cache_groups += 1;
        t.cache_mode_groups();
    }

    #[test]
    fn metadata_overhead_is_small() {
        // Paper scale: 2M groups of 6 slots. Tags: 3 bits * 6 + 6 ABV + 1
        // + 1 + 16 counter = 42 bits -> ~11MB total, i.e. ~0.26% of the
        // 4GB stacked DRAM.
        let t = SegmentGroupTable::with_mode(2 << 20, 6, Mode::Pom);
        let bytes = t.metadata_bytes();
        assert_eq!(bytes, (2 << 20) * 42 / 8);
        assert!(bytes < 16 << 20, "metadata {bytes} too large");
        assert!(bytes > 8 << 20);
    }

    #[test]
    #[should_panic(expected = "slots must be")]
    fn zero_slots_rejected() {
        SrrtEntry::new(0);
    }

    #[test]
    #[should_panic(expected = "slots must be")]
    fn too_many_slots_rejected() {
        SrrtEntry::new(9);
    }
}
