//! The set-associative page index the MemCache and Unison page caches
//! share: off-chip pages (the configured segments) map to the ways of one
//! set of stacked frames, replaced least-recently-used. The two caches
//! differ only in what they keep per frame and when they fill.

use std::ops::Range;

use chameleon_os::SegmentGeometry;
use chameleon_simkit::fastmod::FastMod;

/// Associativity of the page cache.
const WAYS: usize = 4;

/// One page frame of the stacked cache, with the cache's own per-frame
/// state `S`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PageFrame<S> {
    /// Off-chip page number.
    pub(crate) tag: u64,
    pub(crate) valid: bool,
    /// LRU stamp (the access sequence number of the last use).
    pub(crate) stamp: u64,
    pub(crate) state: S,
}

/// The frames of a set-associative page cache and the page-to-set map.
#[derive(Debug)]
pub(crate) struct PageIndex<S> {
    pub(crate) frames: Vec<PageFrame<S>>,
    /// Pages are the configured segments.
    pub(crate) geom: SegmentGeometry,
    ways: usize,
    sets: FastMod,
    /// Demand-access sequence number: the LRU clock.
    tick: u64,
}

impl<S: Copy + Default> PageIndex<S> {
    /// One frame per stacked segment, in sets of up to [`WAYS`] ways.
    pub(crate) fn new(geom: SegmentGeometry) -> Self {
        let frames = geom.groups() as usize;
        let ways = WAYS.min(frames);
        let sets = (frames / ways) as u64;
        Self {
            frames: vec![PageFrame::default(); sets as usize * ways],
            geom,
            ways,
            sets: FastMod::new(sets),
            tick: 0,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> u64 {
        self.sets.divisor()
    }

    /// The off-chip page of `paddr`, the byte offset within it and the
    /// device-relative address.
    ///
    /// # Panics
    ///
    /// Panics unless `paddr` is an off-chip address.
    pub(crate) fn locate(&self, paddr: u64) -> (u64, u64, u64) {
        assert!(
            paddr >= self.geom.stacked_bytes(),
            "page caches receive only off-chip OS addresses, got {paddr:#x}"
        );
        let (seg, offset) = self.geom.segment_of(paddr);
        (
            seg - self.geom.groups(),
            offset,
            paddr - self.geom.stacked_bytes(),
        )
    }

    /// The frames of `page`'s set.
    pub(crate) fn set_of(&self, page: u64) -> Range<usize> {
        let base = self.sets.modulo(page) as usize * self.ways;
        base..base + self.ways
    }

    /// The frame holding `page`, if it is resident.
    pub(crate) fn lookup(&self, page: u64) -> Option<usize> {
        self.set_of(page)
            .find(|&i| self.frames[i].valid && self.frames[i].tag == page)
    }

    /// The frame a fill of `page` replaces: the set's first invalid way,
    /// else its least recently used one.
    pub(crate) fn victim(&self, page: u64) -> usize {
        let set = self.set_of(page);
        let mut victim = set.start;
        for i in set {
            let f = &self.frames[i];
            if !f.valid {
                return i;
            }
            if f.stamp < self.frames[victim].stamp {
                victim = i;
            }
        }
        victim
    }

    /// Advances the LRU clock: call once per demand access.
    pub(crate) fn tick(&mut self) {
        self.tick += 1;
    }

    /// Marks `frame` used by the current demand access.
    pub(crate) fn touch(&mut self, frame: usize) {
        self.frames[frame].stamp = self.tick;
    }

    /// Installs `page` in `frame` with `state`, returning the frame it
    /// replaces.
    pub(crate) fn install(&mut self, frame: usize, page: u64, state: S) -> PageFrame<S> {
        let new = PageFrame {
            tag: page,
            valid: true,
            stamp: self.tick,
            state,
        };
        std::mem::replace(&mut self.frames[frame], new)
    }

    /// Device-relative stacked base address of a frame.
    pub(crate) fn frame_addr(&self, frame: usize) -> u64 {
        frame as u64 * self.geom.segment_bytes()
    }

    /// Device-relative off-chip base address of a page.
    pub(crate) fn page_addr(&self, page: u64) -> u64 {
        page * self.geom.segment_bytes()
    }
}
