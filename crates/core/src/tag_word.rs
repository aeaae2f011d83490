//! The tag word of one direct-mapped frame: the tag of the copy it holds
//! and its valid and dirty bits in one `u64`, laid out like the
//! set-associative SRAM caches' keys. Alloy's TADs and CH-Flex's cache
//! frames are arrays of these.

/// The valid bit.
const VALID: u64 = 0b01;
/// The dirty bit.
const DIRTY: u64 = 0b10;
/// The tag sits above the two flag bits.
const TAG_SHIFT: u32 = 2;

/// `tag << 2 | dirty << 1 | valid`; the default, 0, is an empty frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TagWord(u64);

const _: () = assert!(std::mem::size_of::<TagWord>() == 8);

impl TagWord {
    /// A valid copy of `tag`, dirty or clean.
    pub(crate) fn filled(tag: u64, dirty: bool) -> Self {
        debug_assert!(
            tag >> (u64::BITS - TAG_SHIFT) == 0,
            "tag {tag:#x} overflows"
        );
        Self(tag << TAG_SHIFT | u64::from(dirty) << 1 | VALID)
    }

    /// Whether the frame holds a valid copy of `tag`.
    pub(crate) fn holds(self, tag: u64) -> bool {
        self.0 & !DIRTY == (tag << TAG_SHIFT | VALID)
    }

    /// Whether the frame holds a copy.
    pub(crate) fn is_valid(self) -> bool {
        self.0 & VALID != 0
    }

    /// Whether the frame holds a copy written since it was filled.
    pub(crate) fn is_dirty(self) -> bool {
        self.0 & DIRTY != 0
    }

    /// The tag of the copy (meaningful only when valid).
    pub(crate) fn tag(self) -> u64 {
        self.0 >> TAG_SHIFT
    }

    /// Marks the copy written.
    pub(crate) fn mark_dirty(&mut self) {
        debug_assert!(self.is_valid(), "an empty frame cannot be dirty");
        self.0 |= DIRTY;
    }
}
