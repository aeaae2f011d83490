//! The SRRT entry as it was before packing: one byte or more per field,
//! with the inverse permutation kept beside the forward one. Kept as the
//! reference the packed-entry differential checks [`super::SrrtEntry`]
//! against.

use super::{Mode, MAX_SLOTS};
use chameleon_simkit::Cycle;

/// Sentinel for an unused transit slot.
const NO_TRANSIT: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub(super) struct ReferenceEntry {
    /// `remap[logical] = physical` slot permutation (the tag bits).
    remap: [u8; MAX_SLOTS],
    /// Inverse permutation, `inv[physical] = logical`.
    inv: [u8; MAX_SLOTS],
    slots: u8,
    abv: u8,
    mode: Mode,
    dirty: bool,
    cached: Option<u8>,
    cand: u8,
    count: u16,
    busy_until: Cycle,
    transit: [u8; 2],
}

const _: () = assert!(std::mem::size_of::<ReferenceEntry>() == 40);

impl ReferenceEntry {
    pub(super) fn new(slots: u8) -> Self {
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

    pub(super) fn physical_of(&self, l: u8) -> u8 {
        self.remap[l as usize]
    }

    pub(super) fn logical_in(&self, p: u8) -> u8 {
        self.inv[p as usize]
    }

    pub(super) fn swap_homes(&mut self, a: u8, b: u8) {
        self.remap.swap(a as usize, b as usize);
        self.inv[self.remap[a as usize] as usize] = a;
        self.inv[self.remap[b as usize] as usize] = b;
    }

    pub(super) fn set_allocated(&mut self, l: u8, allocated: bool) {
        if allocated {
            self.abv |= 1 << l;
        } else {
            self.abv &= !(1 << l);
        }
    }

    pub(super) fn is_allocated(&self, l: u8) -> bool {
        self.abv & (1 << l) != 0
    }

    pub(super) fn all_allocated(&self) -> bool {
        self.abv == ((1u16 << self.slots) - 1) as u8
    }

    pub(super) fn free_logical_except(&self, except: u8) -> Option<u8> {
        (0..self.slots).find(|&l| l != except && !self.is_allocated(l))
    }

    pub(super) fn mode(&self) -> Mode {
        self.mode
    }

    pub(super) fn set_mode(&mut self, mode: Mode) {
        if self.mode != mode {
            self.count = 0;
            self.cand = 0;
        }
        self.mode = mode;
    }

    pub(super) fn cached(&self) -> Option<u8> {
        self.cached
    }

    pub(super) fn set_cached(&mut self, l: Option<u8>) {
        self.cached = l;
        self.dirty = false;
    }

    pub(super) fn is_dirty(&self) -> bool {
        self.dirty
    }

    pub(super) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    pub(super) fn note_offchip_access(&mut self, l: u8, threshold: u16) -> bool {
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

    pub(super) fn note_stacked_access(&mut self) {
        self.count = self.count.saturating_sub(1);
    }

    pub(super) fn counter(&self) -> u16 {
        self.count
    }

    pub(super) fn set_counter(&mut self, value: u16) {
        self.count = value;
    }

    pub(super) fn is_busy(&self, now: Cycle) -> bool {
        now < self.busy_until
    }

    pub(super) fn set_transit(&mut self, a: u8, b: Option<u8>, until: Cycle) {
        self.busy_until = self.busy_until.max(until);
        self.transit = [a, b.unwrap_or(NO_TRANSIT)];
    }

    pub(super) fn in_transit(&self, l: u8, now: Cycle) -> bool {
        self.is_busy(now) && (self.transit[0] == l || self.transit[1] == l)
    }

    pub(super) fn pre_transit_physical(&self, l: u8) -> u8 {
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

    pub(super) fn clear_busy(&mut self) {
        self.busy_until = 0;
        self.transit = [NO_TRANSIT; 2];
    }

    pub(super) fn check_permutation(&self) -> bool {
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
