//! Property-based tests for the OS substrate.

use chameleon_os::isa::NullHook;
use chameleon_os::page_table::{PageState, PageTable};
use chameleon_os::{BuddyAllocator, MemoryMap, OsConfig, OsKernel};
use chameleon_simkit::mem::ByteSize;
use proptest::prelude::*;
use std::collections::HashSet;

/// One operation against a page table, for the dense-vs-HashMap
/// differential test below.
#[derive(Debug, Clone)]
enum TableOp {
    Map { vpn: u64, frame: u64 },
    SwapOut { vpn: u64 },
    Unmap { vpn: u64 },
    Clear,
}

fn table_op() -> impl Strategy<Value = TableOp> {
    (0u64..64, 0u64..1024, 0u8..8).prop_map(|(vpn, frame, kind)| match kind {
        0..=3 => TableOp::Map {
            vpn,
            frame: frame * 4096,
        },
        4 | 5 => TableOp::SwapOut { vpn },
        6 => TableOp::Unmap { vpn },
        _ => TableOp::Clear,
    })
}

/// The buddy allocator as it was with a `HashSet` free set: the reference
/// the bitmap free set is checked against. It hands out blocks by the
/// same free lists and scramble, so addresses must agree exactly.
struct HashSetBuddy {
    base: u64,
    free_lists: Vec<Vec<u64>>,
    free_set: HashSet<(u8, u64)>,
    free_bytes: u64,
    scramble: u64,
}

impl HashSetBuddy {
    const FRAME: u64 = 4096;
    const MAX_ORDER: u8 = 9;

    fn new(base: u64, len: u64, seed: u64) -> Self {
        let mut b = Self {
            base,
            free_lists: vec![Vec::new(); Self::MAX_ORDER as usize + 1],
            free_set: HashSet::new(),
            free_bytes: len,
            scramble: seed | 1,
        };
        let block = Self::FRAME << Self::MAX_ORDER;
        for addr in (base..base + len).step_by(block as usize) {
            b.insert_free(Self::MAX_ORDER, addr);
        }
        b
    }

    fn insert_free(&mut self, order: u8, addr: u64) {
        self.free_lists[order as usize].push(addr);
        self.free_set.insert((order, addr));
    }

    fn xorshift(&mut self) -> u64 {
        self.scramble ^= self.scramble << 13;
        self.scramble ^= self.scramble >> 7;
        self.scramble ^= self.scramble << 17;
        self.scramble
    }

    fn take_free(&mut self, order: u8) -> Option<u64> {
        while !self.free_lists[order as usize].is_empty() {
            let state = self.xorshift();
            let list = &mut self.free_lists[order as usize];
            let i = (state % list.len() as u64) as usize;
            let last = list.len() - 1;
            list.swap(i, last);
            let addr = list.pop().unwrap();
            if self.free_set.remove(&(order, addr)) {
                return Some(addr);
            }
        }
        None
    }

    fn alloc(&mut self, order: u8) -> Option<u64> {
        let (mut o, addr) =
            (order..=Self::MAX_ORDER).find_map(|o| Some((o, self.take_free(o)?)))?;
        while o > order {
            o -= 1;
            self.insert_free(o, addr + (Self::FRAME << o));
        }
        self.free_bytes -= Self::FRAME << order;
        Some(addr)
    }

    fn free(&mut self, mut addr: u64, mut order: u8) {
        self.free_bytes += Self::FRAME << order;
        while order < Self::MAX_ORDER {
            let buddy = self.base + ((addr - self.base) ^ (Self::FRAME << order));
            if !self.free_set.remove(&(order, buddy)) {
                break;
            }
            addr = addr.min(buddy);
            order += 1;
        }
        self.insert_free(order, addr);
    }

    fn peek_candidates(&mut self, n: usize) -> Vec<u64> {
        let start = self.xorshift() as usize;
        let mut out = Vec::new();
        for o in (0..=Self::MAX_ORDER).rev() {
            let list = &self.free_lists[o as usize];
            for k in 0..list.len() {
                let addr = list[(start + k) % list.len()];
                if out.len() < n && self.free_set.contains(&(o, addr)) && !out.contains(&addr) {
                    out.push(addr);
                }
            }
        }
        out
    }

    fn alloc_exact_page(&mut self, addr: u64) -> bool {
        let Some((order, block)) = (0..=Self::MAX_ORDER)
            .map(|o| {
                (
                    o,
                    self.base + ((addr - self.base) & !((Self::FRAME << o) - 1)),
                )
            })
            .find(|e| self.free_set.contains(e))
        else {
            return false;
        };
        self.free_set.remove(&(order, block));
        let (mut o, mut base) = (order, block);
        while o > 0 {
            o -= 1;
            let half = Self::FRAME << o;
            if addr < base + half {
                self.insert_free(o, base + half);
            } else {
                self.insert_free(o, base);
                base += half;
            }
        }
        self.free_bytes -= Self::FRAME;
        true
    }
}

/// One operation of the buddy differential test.
#[derive(Debug, Clone)]
enum BuddyOp {
    Alloc(u8),
    /// Frees the live block at this index (modulo the live count).
    Free(usize),
    AllocExactPage(u64),
    Peek(usize),
}

fn buddy_op() -> impl Strategy<Value = BuddyOp> {
    (0u8..11, any::<u64>()).prop_map(|(kind, x)| match kind {
        0..=3 => BuddyOp::Alloc((x % 10) as u8),
        4..=7 => BuddyOp::Free(x as usize),
        8 | 9 => BuddyOp::AllocExactPage(x % 2048),
        _ => BuddyOp::Peek(1 + (x % 7) as usize),
    })
}

proptest! {
    /// The buddy allocator conserves bytes exactly and never hands out
    /// overlapping frames under any alloc/free interleaving.
    #[test]
    fn buddy_conserves_and_never_overlaps(
        ops in prop::collection::vec((any::<bool>(), 0u8..4), 1..300),
    ) {
        let total: u64 = 8 << 20;
        let mut b = BuddyAllocator::new(0, total).with_scramble(3);
        let mut live: Vec<(u64, u8)> = Vec::new();
        for (is_alloc, order) in ops {
            if is_alloc {
                if let Some(addr) = b.alloc(order) {
                    let size = 4096u64 << order;
                    // No overlap with any live block.
                    for &(a, o) in &live {
                        let s = 4096u64 << o;
                        prop_assert!(
                            addr + size <= a || a + s <= addr,
                            "overlap: {addr:#x}+{size} vs {a:#x}+{s}"
                        );
                    }
                    prop_assert_eq!((addr) % size, 0, "alignment");
                    live.push((addr, order));
                }
            } else if let Some((addr, order)) = live.pop() {
                b.free(addr, order);
            }
            let live_bytes: u64 = live.iter().map(|&(_, o)| 4096u64 << o).sum();
            prop_assert_eq!(b.free_bytes(), total - live_bytes, "conservation");
        }
    }

    /// The bitmap free set is a drop-in for the `HashSet` one: under any
    /// alloc/free/exact-page/peek sequence the allocator hands out the
    /// same addresses, peeks the same candidates and keeps the same
    /// free byte count as the reference.
    #[test]
    fn buddy_matches_the_hash_set_reference(
        ops in prop::collection::vec(buddy_op(), 1..400),
        base_blocks in 0u64..4,
    ) {
        let (base, len, seed) = (base_blocks << 21, 8 << 20, 0x5EED);
        let mut b = BuddyAllocator::new(base, len).with_scramble(seed);
        let mut r = HashSetBuddy::new(base, len, seed);
        let mut live: Vec<(u64, u8)> = Vec::new();
        for op in ops {
            match op {
                BuddyOp::Alloc(order) => {
                    let got = b.alloc(order);
                    prop_assert_eq!(got, r.alloc(order));
                    live.extend(got.map(|a| (a, order)));
                }
                BuddyOp::Free(i) if !live.is_empty() => {
                    let (addr, order) = live.swap_remove(i % live.len());
                    b.free(addr, order);
                    r.free(addr, order);
                }
                BuddyOp::Free(_) => {}
                BuddyOp::AllocExactPage(page) => {
                    let addr = base + page * 4096;
                    let got = b.alloc_exact_page(addr);
                    prop_assert_eq!(got, r.alloc_exact_page(addr));
                    if got {
                        live.push((addr, 0));
                    }
                }
                BuddyOp::Peek(n) => prop_assert_eq!(b.peek_candidates(n), r.peek_candidates(n)),
            }
            prop_assert_eq!(b.free_bytes(), r.free_bytes);
        }
    }

    /// alloc_exact_page always returns exactly the requested frame and
    /// composes with ordinary alloc/free.
    #[test]
    fn buddy_exact_page_composes(
        targets in prop::collection::vec(0u64..2048, 1..64),
    ) {
        let mut b = BuddyAllocator::new(0, 8 << 20);
        let mut taken = std::collections::HashSet::new();
        for t in targets {
            let addr = t * 4096;
            let ok = b.alloc_exact_page(addr);
            prop_assert_eq!(ok, taken.insert(addr), "exact alloc iff not already taken");
        }
        for &addr in &taken {
            b.free(addr, 0);
        }
        prop_assert_eq!(b.free_bytes(), 8 << 20);
    }

    /// Demand paging: any touch pattern within the footprint yields
    /// page-aligned consistent translations, and repeated touches of a
    /// resident page never fault.
    #[test]
    fn paging_translations_are_stable(
        touches in prop::collection::vec(0u64..(4u64 << 20), 1..200),
    ) {
        let mut os = OsKernel::new(
            OsConfig::default(),
            MemoryMap::new(ByteSize::mib(2), ByteSize::mib(8)),
        );
        let pid = os.spawn(ByteSize::mib(4));
        let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for v in touches {
            let t = os.touch(pid, v, false, 0, &mut NullHook).unwrap();
            prop_assert_eq!(t.paddr % 4096, v % 4096, "offset preserved");
            let page = v / 4096;
            match seen.get(&page) {
                Some(&frame) => prop_assert_eq!(
                    t.paddr & !4095,
                    frame,
                    "resident page keeps its frame"
                ),
                None => {
                    seen.insert(page, t.paddr & !4095);
                }
            }
            // Footprint fits in memory: no page can ever major-fault.
            prop_assert_ne!(t.fault, Some(chameleon_os::FaultKind::Major));
        }
    }

    /// The dense `Vec`-backed page table agrees with a naive
    /// `HashMap<vpn, PageState>` model on every observable — state,
    /// translation, resident count, returned frames — through arbitrary
    /// map/swap/unmap/clear sequences. This pins the hot-path
    /// representation swap to the semantics of the original
    /// HashMap-backed table.
    #[test]
    fn dense_table_matches_hashmap_model(
        ops in prop::collection::vec(table_op(), 1..200),
    ) {
        let mut dense = PageTable::new();
        let mut model: std::collections::HashMap<u64, PageState> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                TableOp::Map { vpn, frame } => {
                    dense.map(vpn * 4096, frame);
                    model.insert(vpn, PageState::Resident { frame });
                }
                TableOp::SwapOut { vpn } => {
                    // Only legal on resident pages (the kernel guarantees
                    // this); the dense table panics otherwise.
                    if let Some(PageState::Resident { frame }) = model.get(&vpn).copied() {
                        prop_assert_eq!(dense.swap_out(vpn * 4096), frame);
                        model.insert(vpn, PageState::SwappedOut);
                    }
                }
                TableOp::Unmap { vpn } => {
                    let expect = match model.remove(&vpn) {
                        Some(PageState::Resident { frame }) => Some(frame),
                        _ => None,
                    };
                    prop_assert_eq!(dense.unmap(vpn * 4096), expect);
                }
                TableOp::Clear => {
                    let mut expect: Vec<(u64, u64)> = model
                        .drain()
                        .filter_map(|(vpn, s)| match s {
                            PageState::Resident { frame } => Some((vpn, frame)),
                            _ => None,
                        })
                        .collect();
                    expect.sort_unstable();
                    let frames: Vec<u64> = expect.iter().map(|&(_, f)| f).collect();
                    prop_assert_eq!(dense.clear(), frames, "clear yields VPN-ordered frames");
                }
            }
            let resident = model
                .values()
                .filter(|s| matches!(s, PageState::Resident { .. }))
                .count();
            prop_assert_eq!(dense.resident_pages(), resident);
            for vpn in 0..64u64 {
                let expect = model.get(&vpn).copied().unwrap_or(PageState::Untouched);
                prop_assert_eq!(dense.state(vpn * 4096), expect, "vpn {} state", vpn);
                let frame = match expect {
                    PageState::Resident { frame } => Some(frame + 17),
                    _ => None,
                };
                prop_assert_eq!(dense.translate(vpn * 4096 + 17), frame);
            }
        }
    }
}
