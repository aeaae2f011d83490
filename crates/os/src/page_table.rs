//! Per-process page tables.
//!
//! The table is *dense*: virtual address spaces start at zero and are
//! bounded by the process footprint, so the VPN indexes a flat
//! `Vec<PageState>` directly. This keeps the per-reference translation —
//! the hottest lookup in the whole simulator — free of hashing; the old
//! `HashMap<u64, PageState>` paid a SipHash per touch. A resident-page
//! counter is maintained incrementally so RSS/free-space telemetry is
//! O(1) instead of an O(pages) scan.

/// Size of a virtual page (matches the frame size).
pub const PAGE_SIZE: u64 = 4096;

/// The state of one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never touched; no frame assigned.
    Untouched,
    /// Resident in a physical frame.
    Resident {
        /// Base physical address of the frame.
        frame: u64,
    },
    /// Touched before but currently swapped out to the SSD.
    SwappedOut,
}

/// A flat virtual→physical map for one process.
///
/// Virtual addresses start at zero and are private per process; the
/// simulator does not model address-space layout beyond that. The vector
/// grows on demand to the highest touched VPN, so sparse tails of a
/// footprint cost nothing until touched.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: Vec<PageState>,
    resident: usize,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Virtual page number of an address.
    pub fn vpn(vaddr: u64) -> u64 {
        vaddr / PAGE_SIZE
    }

    /// State of the page containing `vaddr`.
    pub fn state(&self, vaddr: u64) -> PageState {
        self.entries
            .get(Self::vpn(vaddr) as usize)
            .copied()
            .unwrap_or(PageState::Untouched)
    }

    /// Translates `vaddr` if its page is resident.
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        match self.state(vaddr) {
            PageState::Resident { frame } => Some(frame + vaddr % PAGE_SIZE),
            _ => None,
        }
    }

    /// Installs a resident mapping for the page containing `vaddr`.
    pub fn map(&mut self, vaddr: u64, frame: u64) {
        let vpn = Self::vpn(vaddr) as usize;
        if vpn >= self.entries.len() {
            self.entries.resize(vpn + 1, PageState::Untouched);
        }
        let slot = &mut self.entries[vpn];
        if !matches!(slot, PageState::Resident { .. }) {
            self.resident += 1;
        }
        *slot = PageState::Resident { frame };
    }

    /// Marks the page containing `vaddr` as swapped out, returning its
    /// former frame.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn swap_out(&mut self, vaddr: u64) -> u64 {
        let vpn = Self::vpn(vaddr);
        let state = self
            .entries
            .get_mut(vpn as usize)
            .map_or(PageState::Untouched, |s| {
                std::mem::replace(s, PageState::SwappedOut)
            });
        match state {
            PageState::Resident { frame } => {
                self.resident -= 1;
                frame
            }
            // INVARIANT: callers only swap out pages the kernel lists resident.
            other => panic!("swap_out of non-resident page {vpn}: {other:?}"),
        }
    }

    /// Drops the page containing `vaddr` entirely (back to `Untouched`),
    /// returning its frame if it was resident. Used for discardable pages
    /// (buffer cache) whose contents need no swap-out.
    pub fn unmap(&mut self, vaddr: u64) -> Option<u64> {
        let vpn = Self::vpn(vaddr) as usize;
        let state = self
            .entries
            .get_mut(vpn)
            .map(|s| std::mem::replace(s, PageState::Untouched));
        match state {
            Some(PageState::Resident { frame }) => {
                self.resident -= 1;
                Some(frame)
            }
            _ => None,
        }
    }

    /// Removes all mappings, yielding the frames that were resident (in
    /// VPN order).
    pub fn clear(&mut self) -> Vec<u64> {
        let frames = self
            .entries
            .iter()
            .filter_map(|s| match s {
                PageState::Resident { frame } => Some(*frame),
                _ => None,
            })
            // INVARIANT: clear() runs at process teardown/reset only —
            // never on the access path (graph edges from cache code are
            // conservative `.clear()` fan-out).
            .collect();
        self.entries.clear();
        self.resident = 0;
        frames
    }

    /// Number of resident pages (incrementally maintained, O(1)).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_by_default() {
        let t = PageTable::new();
        assert_eq!(t.state(0x123), PageState::Untouched);
        assert_eq!(t.translate(0x123), None);
    }

    #[test]
    fn map_translate_offsets() {
        let mut t = PageTable::new();
        t.map(0x2345, 0x8000);
        assert_eq!(t.translate(0x2345), Some(0x8345));
        assert_eq!(t.translate(0x2000), Some(0x8000));
        assert_eq!(t.translate(0x3000), None, "next page unmapped");
    }

    #[test]
    fn swap_out_and_back() {
        let mut t = PageTable::new();
        t.map(0x1000, 0x4000);
        assert_eq!(t.swap_out(0x1000), 0x4000);
        assert_eq!(t.state(0x1000), PageState::SwappedOut);
        t.map(0x1000, 0x9000);
        assert_eq!(t.translate(0x1000), Some(0x9000));
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn swap_out_untouched_panics() {
        PageTable::new().swap_out(0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn swap_out_swapped_page_panics() {
        let mut t = PageTable::new();
        t.map(0x1000, 0x4000);
        t.swap_out(0x1000);
        t.swap_out(0x1000);
    }

    #[test]
    fn clear_returns_resident_frames() {
        let mut t = PageTable::new();
        t.map(0, 0x1000);
        t.map(4096, 0x2000);
        t.swap_out(4096);
        let mut frames = t.clear();
        frames.sort_unstable();
        assert_eq!(frames, vec![0x1000]);
        assert_eq!(t.resident_pages(), 0);
    }

    #[test]
    fn unmap_drops_to_untouched() {
        let mut t = PageTable::new();
        t.map(0x1000, 0x4000);
        assert_eq!(t.unmap(0x1000), Some(0x4000));
        assert_eq!(t.state(0x1000), PageState::Untouched);
        assert_eq!(t.unmap(0x1000), None);
    }

    #[test]
    fn unmap_swapped_page_returns_none_but_resets() {
        let mut t = PageTable::new();
        t.map(0x1000, 0x4000);
        t.swap_out(0x1000);
        assert_eq!(t.unmap(0x1000), None);
        assert_eq!(t.state(0x1000), PageState::Untouched);
    }

    #[test]
    fn resident_counter_tracks_transitions() {
        let mut t = PageTable::new();
        assert_eq!(t.resident_pages(), 0);
        t.map(0, 0xA000);
        t.map(4096, 0xB000);
        assert_eq!(t.resident_pages(), 2);
        t.map(0, 0xC000); // remap: still resident
        assert_eq!(t.resident_pages(), 2);
        t.swap_out(4096);
        assert_eq!(t.resident_pages(), 1);
        t.map(4096, 0xD000); // swap back in
        assert_eq!(t.resident_pages(), 2);
        t.unmap(0);
        assert_eq!(t.resident_pages(), 1);
    }
}
