//! Physical memory layout and the per-node buddy frame allocator.

use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

/// The two memory nodes of the single-socket heterogeneous system
/// (Figure 1b of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// High-bandwidth die-stacked DRAM.
    Stacked,
    /// Conventional off-chip DRAM.
    Offchip,
}

/// Which node(s) an allocation should prefer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodePreference {
    /// Try stacked first, spill to off-chip (Linux "first-touch" local
    /// allocation on the fast node).
    FastFirst,
    /// Try off-chip first, spill to stacked.
    SlowFirst,
    /// Keep free fractions even across nodes, spreading live data
    /// uniformly over the physical address space (the behaviour large
    /// rate-mode workloads see from the Linux buddy allocator once memory
    /// churns).
    Balanced,
}

/// The physical address map: stacked DRAM at the bottom, off-chip above it
/// (matching the paper's `[0, stacked)` / `[stacked, total)` ranges in
/// Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryMap {
    stacked_bytes: u64,
    offchip_bytes: u64,
}

impl MemoryMap {
    /// Creates a map with the given node capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero or not 4KB-aligned.
    pub fn new(stacked: ByteSize, offchip: ByteSize) -> Self {
        for (name, b) in [("stacked", stacked.bytes()), ("offchip", offchip.bytes())] {
            assert!(b > 0, "{name} capacity must be non-zero");
            assert!(b % 4096 == 0, "{name} capacity must be page-aligned");
        }
        Self {
            stacked_bytes: stacked.bytes(),
            offchip_bytes: offchip.bytes(),
        }
    }

    /// Capacity of the stacked node.
    pub fn stacked(&self) -> ByteSize {
        ByteSize::bytes_exact(self.stacked_bytes)
    }

    /// Capacity of the off-chip node.
    pub fn offchip(&self) -> ByteSize {
        ByteSize::bytes_exact(self.offchip_bytes)
    }

    /// Total OS-visible capacity when both nodes are exposed.
    pub fn total(&self) -> ByteSize {
        ByteSize::bytes_exact(self.stacked_bytes + self.offchip_bytes)
    }

    /// Physical base address of a node.
    pub fn base(&self, node: NodeId) -> u64 {
        match node {
            NodeId::Stacked => 0,
            NodeId::Offchip => self.stacked_bytes,
        }
    }

    /// Which node a physical address belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the total capacity.
    pub fn node_of(&self, paddr: u64) -> NodeId {
        if paddr < self.stacked_bytes {
            NodeId::Stacked
        } else {
            assert!(
                paddr < self.stacked_bytes + self.offchip_bytes,
                "physical address {paddr:#x} out of range"
            );
            NodeId::Offchip
        }
    }
}

/// A binary-buddy allocator over one node's physical frames.
///
/// Supports allocations of power-of-two *orders* of 4KB frames, from a
/// base page (order 0) up to a 2MB block (order 9). The kernel allocates
/// base pages only; the larger orders are the split/merge units that set
/// the order frames are handed out in. Blocks are handed out in a
/// pseudo-random order drawn from a seed, modelling the scattered free
/// lists of a long-running, churned system rather than a freshly booted
/// one.
///
/// # Example
///
/// ```
/// use chameleon_os::BuddyAllocator;
///
/// let mut b = BuddyAllocator::new(0, 1 << 21, 7); // one 2MB chunk, seed 7
/// let huge = b.alloc(9).unwrap();
/// assert!(b.alloc(0).is_none(), "fully used");
/// b.free(huge, 9);
/// assert_eq!(b.free_bytes(), 1 << 21);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    len: u64,
    /// Free blocks per order, stored as addresses in hand-out order. An
    /// entry whose block is no longer free (merged away or taken by
    /// `alloc_exact_page`) stays behind and is skipped lazily.
    free_lists: Vec<Vec<u64>>,
    /// The authoritative free set: bit `i` of `free_bits[order]` is set
    /// iff the `i`-th block of that order is free.
    free_bits: Vec<Vec<u64>>,
    free_bytes: u64,
    /// The xorshift state that picks the hand-out order.
    scramble: u64,
}

/// Base page size: 4KB.
pub const FRAME_SIZE: u64 = 4096;
/// Largest supported order (2MB blocks).
pub const MAX_ORDER: u8 = 9;

impl BuddyAllocator {
    /// Builds an allocator over `[base, base + len)` whose hand-out order
    /// is drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `len` is not 2MB-aligned (so the region tiles
    /// exactly into max-order blocks) or `len` is zero.
    pub fn new(base: u64, len: u64, seed: u64) -> Self {
        let block = FRAME_SIZE << MAX_ORDER;
        assert!(len > 0, "empty allocator region");
        assert!(base.is_multiple_of(block), "base must be 2MB-aligned");
        assert!(
            len.is_multiple_of(block),
            "length must be a multiple of 2MB"
        );
        let mut a = Self {
            base,
            len,
            free_lists: vec![Vec::new(); MAX_ORDER as usize + 1],
            free_bits: (0..=MAX_ORDER)
                .map(|o| vec![0; (len / (FRAME_SIZE << o)).div_ceil(64) as usize])
                .collect(),
            free_bytes: 0,
            scramble: seed | 1,
        };
        let mut addr = base;
        while addr < base + len {
            a.insert_free(MAX_ORDER, addr);
            a.free_bytes += block;
            addr += block;
        }
        a
    }

    /// Advances the xorshift64 state and returns it.
    fn next_random(&mut self) -> u64 {
        self.scramble ^= self.scramble << 13;
        self.scramble ^= self.scramble >> 7;
        self.scramble ^= self.scramble << 17;
        self.scramble
    }

    /// The word index and bit mask of block `addr` of `order` in
    /// `free_bits[order]`.
    fn bit(&self, order: u8, addr: u64) -> (usize, u64) {
        let block = (addr - self.base) / (FRAME_SIZE << order);
        ((block / 64) as usize, 1 << (block % 64))
    }

    fn is_free(&self, order: u8, addr: u64) -> bool {
        let (word, mask) = self.bit(order, addr);
        self.free_bits[order as usize][word] & mask != 0
    }

    /// The smallest free block of order `from` or above that contains
    /// `addr`, as `(order, block)`.
    fn free_cover(&self, from: u8, addr: u64) -> Option<(u8, u64)> {
        (from..=MAX_ORDER)
            .map(|o| {
                (
                    o,
                    self.base + ((addr - self.base) & !((FRAME_SIZE << o) - 1)),
                )
            })
            .find(|&(o, block)| self.is_free(o, block))
    }

    fn insert_free(&mut self, order: u8, addr: u64) {
        self.free_lists[order as usize].push(addr);
        let (word, mask) = self.bit(order, addr);
        self.free_bits[order as usize][word] |= mask;
    }

    /// Takes the block out of the free set; `false` if it was not free.
    /// Its list entry is left behind and skipped lazily by `take_free`.
    fn remove_specific(&mut self, order: u8, addr: u64) -> bool {
        let (word, mask) = self.bit(order, addr);
        let bits = &mut self.free_bits[order as usize][word];
        let was_free = *bits & mask != 0;
        *bits &= !mask;
        was_free
    }

    fn take_free(&mut self, order: u8) -> Option<u64> {
        loop {
            if self.free_lists[order as usize].is_empty() {
                return None;
            }
            // Pick a pseudo-random entry.
            let state = self.next_random();
            let list = &mut self.free_lists[order as usize];
            let i = (state % list.len() as u64) as usize;
            let last = list.len() - 1;
            list.swap(i, last);
            let addr = list
                .pop()
                // INVARIANT: the list was checked non-empty above.
                .expect("checked non-empty");
            // Entries are lazily invalidated when merged away.
            if self.remove_specific(order, addr) {
                return Some(addr);
            }
        }
    }

    /// Allocates a block of `2^order` frames, returning its base address.
    ///
    /// Returns `None` when no block of that size can be carved out.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc(&mut self, order: u8) -> Option<u64> {
        assert!(order <= MAX_ORDER, "order {order} exceeds max {MAX_ORDER}");
        // Take a block of the smallest order that has a free one.
        let (o, addr) = (order..=MAX_ORDER).find_map(|o| Some((o, self.take_free(o)?)))?;
        self.carve(addr, o, order, addr);
        Some(addr)
    }

    /// Carves the block of `order` that contains `addr` out of `block`, a
    /// block of order `from` already taken from the free set: splits it
    /// down, freeing each half that does not contain `addr`.
    fn carve(&mut self, block: u64, from: u8, order: u8, addr: u64) {
        let (mut o, mut base) = (from, block);
        while o > order {
            o -= 1;
            let half = FRAME_SIZE << o;
            if addr < base + half {
                self.insert_free(o, base + half);
            } else {
                self.insert_free(o, base);
                base += half;
            }
        }
        self.free_bytes -= FRAME_SIZE << order;
    }

    /// Frees a previously allocated block, merging buddies eagerly.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of range, misaligned for its order, or
    /// already free (double free).
    pub fn free(&mut self, addr: u64, order: u8) {
        assert!(order <= MAX_ORDER);
        let size = FRAME_SIZE << order;
        assert!(
            addr >= self.base && addr + size <= self.base + self.len,
            "free of {addr:#x} outside region"
        );
        assert!(
            (addr - self.base).is_multiple_of(size),
            "misaligned free {addr:#x} order {order}"
        );
        // Double-free detection: the block (or any enclosing block it may
        // have merged into) must not already be free.
        let cover = self.free_cover(order, addr);
        assert!(
            cover.is_none(),
            "double free of {addr:#x} order {order} (covered by free (order, block) {cover:x?})"
        );
        let mut addr = addr;
        let mut order = order;
        while order < MAX_ORDER {
            let rel = addr - self.base;
            let buddy = self.base + (rel ^ (FRAME_SIZE << order));
            if self.remove_specific(order, buddy) {
                addr = addr.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.insert_free(order, addr);
        self.free_bytes += size;
    }

    /// Samples up to `n` frame addresses from *distinct* free blocks,
    /// without allocating anything. Candidates are spread across the
    /// address space (one per free block, largest blocks first), so a
    /// placement scorer sees genuinely different segment groups; commit a
    /// choice with [`BuddyAllocator::alloc_exact_page`].
    pub fn peek_candidates(&mut self, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        // Advance the scramble state so repeated peeks vary.
        let start = self.next_random() as usize;
        'orders: for o in (0..=MAX_ORDER).rev() {
            let list = &self.free_lists[o as usize];
            for k in 0..list.len() {
                let addr = list[(start + k) % list.len()];
                if !self.is_free(o, addr) {
                    continue; // stale entry
                }
                if out.contains(&addr) {
                    continue;
                }
                out.push(addr);
                if out.len() == n {
                    break 'orders;
                }
            }
        }
        out
    }

    /// Allocates the specific 4KB frame at `addr`, splitting whatever free
    /// block contains it. Returns `false` if no free block covers it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the region or not page-aligned.
    pub fn alloc_exact_page(&mut self, addr: u64) -> bool {
        assert!(addr.is_multiple_of(FRAME_SIZE), "unaligned frame {addr:#x}");
        assert!(
            addr >= self.base && addr < self.base + self.len,
            "frame {addr:#x} outside region"
        );
        let Some((order, block)) = self.free_cover(0, addr) else {
            return false;
        };
        self.remove_specific(order, block);
        self.carve(block, order, 0, addr);
        true
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Total bytes managed.
    pub fn total_bytes(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_map_nodes() {
        let m = MemoryMap::new(ByteSize::mib(4), ByteSize::mib(20));
        assert_eq!(m.node_of(0), NodeId::Stacked);
        assert_eq!(m.node_of((4 << 20) - 1), NodeId::Stacked);
        assert_eq!(m.node_of(4 << 20), NodeId::Offchip);
        assert_eq!(m.total(), ByteSize::mib(24));
        assert_eq!(m.base(NodeId::Offchip), 4 << 20);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_out_of_range_panics() {
        MemoryMap::new(ByteSize::mib(4), ByteSize::mib(20)).node_of(24 << 20);
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut b = BuddyAllocator::new(0, 4 << 20, 1);
        assert_eq!(b.free_bytes(), 4 << 20);
        let a = b.alloc(0).unwrap();
        assert_eq!(b.free_bytes(), (4 << 20) - 4096);
        b.free(a, 0);
        assert_eq!(b.free_bytes(), 4 << 20);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BuddyAllocator::new(0, 2 << 20, 1);
        let mut got = Vec::new();
        while let Some(a) = b.alloc(0) {
            got.push(a);
        }
        assert_eq!(got.len(), 512);
        assert_eq!(b.free_bytes(), 0);
        // All distinct, all aligned.
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), 512);
        assert!(got.iter().all(|a| a % 4096 == 0));
    }

    #[test]
    fn split_and_merge_restores_huge_block() {
        let mut b = BuddyAllocator::new(0, 2 << 20, 1);
        let frames: Vec<u64> = (0..512).map(|_| b.alloc(0).unwrap()).collect();
        assert!(b.alloc(9).is_none());
        for f in frames {
            b.free(f, 0);
        }
        // After merging, a huge page is available again.
        assert!(b.alloc(9).is_some());
    }

    #[test]
    fn huge_and_small_coexist() {
        let mut b = BuddyAllocator::new(0, 8 << 20, 1);
        let h = b.alloc(9).unwrap();
        let s = b.alloc(0).unwrap();
        assert!(
            s < h || s >= h + (2 << 20),
            "small frame must not overlap huge page"
        );
        b.free(h, 9);
        b.free(s, 0);
        assert_eq!(b.free_bytes(), 8 << 20);
    }

    #[test]
    fn non_zero_base() {
        let base = 64 << 20;
        let mut b = BuddyAllocator::new(base, 2 << 20, 1);
        let a = b.alloc(9).unwrap();
        assert_eq!(a, base);
    }

    #[test]
    fn peek_candidates_span_distinct_blocks() {
        let mut b = BuddyAllocator::new(0, 16 << 20, 7);
        let cands = b.peek_candidates(4);
        assert_eq!(cands.len(), 4);
        let blocks: std::collections::HashSet<u64> = cands.iter().map(|f| f >> 21).collect();
        assert_eq!(blocks.len(), 4, "one candidate per free 2MB block");
        assert_eq!(b.free_bytes(), 16 << 20, "peek allocates nothing");
    }

    #[test]
    fn alloc_exact_page_splits_correctly() {
        let mut b = BuddyAllocator::new(0, 2 << 20, 1);
        let target = 17 * 4096;
        assert!(b.alloc_exact_page(target));
        assert_eq!(b.free_bytes(), (2 << 20) - 4096);
        // The page is genuinely gone: allocating everything else never
        // returns it.
        let mut seen = Vec::new();
        while let Some(f) = b.alloc(0) {
            assert_ne!(f, target);
            seen.push(f);
        }
        assert_eq!(seen.len(), 511);
        // Free everything; the region merges back whole.
        b.free(target, 0);
        for f in seen {
            b.free(f, 0);
        }
        assert!(b.alloc(MAX_ORDER).is_some());
    }

    #[test]
    fn alloc_exact_page_fails_when_taken() {
        let mut b = BuddyAllocator::new(0, 2 << 20, 1);
        assert!(b.alloc_exact_page(0));
        assert!(!b.alloc_exact_page(0), "already allocated");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut b = BuddyAllocator::new(0, 2 << 20, 1);
        let a = b.alloc(0).unwrap();
        b.free(a, 0);
        b.free(a, 0);
    }

    #[test]
    #[should_panic(expected = "2MB-aligned")]
    fn misaligned_base_rejected() {
        BuddyAllocator::new(4096, 2 << 20, 1);
    }
}
