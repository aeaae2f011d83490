//! Synthetic access-pattern generators beyond the Table II calibration:
//! Zipf-distributed point accesses with tunable skew, and loop/scan
//! streams. The scenario layer mixes these with [`crate::AppStream`]s to
//! model datacenter tenants whose reuse behaviour the Table II apps do
//! not cover — a skewed key-value working set rewards hot-page promotion,
//! while a pure scan defeats any reuse-based placement policy.

use chameleon_cpu::{InstructionStream, Op};
use chameleon_simkit::fastmod::FastMod;
use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::rng::DeterministicRng;
use serde::{Deserialize, Serialize};

use crate::decode::Bernoulli;

/// Cache-line size the generators address at.
const LINE: u64 = 64;

/// `2⁻⁵³`: scales the high 53 bits of one raw draw onto `[0, 1)`, as
/// [`DeterministicRng::unit`] does.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Knuth's multiplicative-hash prime, used to scatter Zipf ranks across
/// the footprint so popularity is not spatially contiguous.
const SCATTER: u64 = 2_654_435_761;

/// A Zipf-distributed point-access workload: line `r`'s access
/// probability falls off as `1 / r^skew`, the canonical model for
/// key-value and object-store tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZipfConfig {
    /// Footprint of the tenant (rounded down to whole pages on use).
    pub footprint: ByteSize,
    /// Skew exponent `s`; 0 is uniform, ~0.99 is the classic YCSB-style
    /// hot-spot, larger is more concentrated.
    pub skew: f64,
    /// Memory operations per 1000 instructions.
    pub mem_per_kilo: u32,
    /// Fraction of memory operations that are stores.
    pub write_fraction: f64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        Self {
            footprint: ByteSize::mib(4),
            skew: 0.99,
            mem_per_kilo: 200,
            write_fraction: 0.3,
        }
    }
}

/// A loop/scan workload: a sequential strided walk that wraps around the
/// footprint forever — the classic LRU-adversarial pattern with zero
/// temporal reuse inside the scan window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopConfig {
    /// Footprint of the tenant (rounded down to whole pages on use).
    pub footprint: ByteSize,
    /// Lines skipped per access (1 = dense scan).
    pub stride_lines: u32,
    /// Memory operations per 1000 instructions.
    pub mem_per_kilo: u32,
    /// Fraction of memory operations that are stores.
    pub write_fraction: f64,
}

impl Default for LoopConfig {
    fn default() -> Self {
        Self {
            footprint: ByteSize::mib(4),
            stride_lines: 1,
            mem_per_kilo: 200,
            write_fraction: 0.1,
        }
    }
}

/// Bit 0 of a packed memory-op word: set for a store. Every generator
/// addresses whole lines, so the bit is free.
const STORE_BIT: u64 = 1;

/// The pending word when no memory op waits behind a compute gap. Its
/// address part is not line-aligned, so no generator packs it.
const NO_PENDING: u64 = u64::MAX;

/// Packs one memory op into a word: the line-aligned `addr` with the
/// store flag in bit 0.
// lint: hot-path
#[inline]
pub(crate) fn mem_word(addr: u64, store: bool) -> u64 {
    debug_assert_eq!(addr & STORE_BIT, 0, "memory ops address whole lines");
    addr | u64::from(store)
}

/// The op a [`mem_word`] packed.
// lint: hot-path
#[inline]
fn unpack(word: u64) -> Op {
    if word & STORE_BIT == 0 {
        Op::Load(word)
    } else {
        Op::Store(word & !STORE_BIT)
    }
}

/// Fractional compute-gap pacing, the one copy every generator uses:
/// inserts enough `Op::Compute` instructions between memory operations
/// to hit a `mem_per_kilo` intensity, carrying the remainder in an
/// accumulator. The memory op drawn behind a gap waits in `pending`, one
/// packed word ([`mem_word`]).
#[derive(Debug)]
pub(crate) struct Pacer {
    gap_per_mem: f64,
    gap_acc: f64,
    instructions_left: u64,
    /// The packed memory op to emit next, or [`NO_PENDING`].
    pending: u64,
}

impl Pacer {
    /// Paces `instructions` instructions at `mem_per_kilo` memory ops per
    /// 1000 instructions. An intensity of 0 paces as 1 (the gap formula
    /// divides by it), and one above 1000 as 1000 (no compute at all).
    pub(crate) fn new(mem_per_kilo: u32, instructions: u64) -> Self {
        let mpk = mem_per_kilo.max(1) as f64;
        Self {
            gap_per_mem: (1000.0 - mpk).max(0.0) / mpk,
            gap_acc: 0.0,
            instructions_left: instructions,
            pending: NO_PENDING,
        }
    }

    /// Emits the next op: the pending memory op if one waits, else the
    /// compute gap before a fresh memory op from `next_mem` (a packed
    /// [`mem_word`]), or that op itself when the gap is empty. `next_mem`
    /// runs exactly when the stream needs a fresh memory op.
    // lint: hot-path
    #[inline]
    pub(crate) fn next_op(&mut self, next_mem: impl FnOnce() -> u64) -> Option<Op> {
        if self.pending != NO_PENDING {
            // The gap that deferred this op left at least one
            // instruction for it (`gap <= instructions_left - 1`).
            self.instructions_left -= 1;
            return Some(unpack(std::mem::replace(&mut self.pending, NO_PENDING)));
        }
        if self.instructions_left == 0 {
            return None;
        }
        self.gap_acc += self.gap_per_mem;
        // INVARIANT: `gap_per_mem <= 999` (intensity at least 1), and the
        // accumulator enters this add below 1: it keeps only the fraction
        // of the last add, unless the budget clamped the gap, and then the
        // stream ends before another add. So it stays in [0, 1000], where
        // `as i64` truncates exactly as `as u64` does and the gap converts
        // back to `f64` exactly. The signed conversions are one
        // instruction each on x86-64; the unsigned ones are not.
        let gap = (self.gap_acc as i64 as u64).min(self.instructions_left - 1);
        self.gap_acc -= gap as i64 as f64;
        let word = next_mem();
        if gap == 0 {
            self.instructions_left -= 1;
            return Some(unpack(word));
        }
        self.pending = word;
        self.instructions_left -= gap;
        Some(Op::Compute(gap as u32))
    }
}

/// Footprint in whole lines; at least one page.
fn footprint_lines(footprint: ByteSize) -> u64 {
    let bytes = (footprint.bytes() / 4096) * 4096;
    assert!(
        bytes >= 4096,
        "generator footprint {} too small; need at least one page",
        footprint.bytes()
    );
    bytes / LINE
}

/// Deterministic stream of Zipf-distributed accesses.
///
/// Ranks are drawn by inverting the continuous bounded power-law CDF
/// (`P(rank ≤ x) ∝ x^(1-s)`), a standard O(1) approximation of the
/// discrete Zipf distribution that preserves the tunable-skew shape, then
/// scattered across the footprint with a multiplicative hash so hot lines
/// are not spatially adjacent (hot *pages* still emerge, which is what
/// the guidance profiler classifies).
///
/// Each draw evaluates the inverse CDF with one `powf`; construction
/// precomputes only its per-stream constants. A scenario job makes at
/// most a few thousand draws, too few to repay building a rank table.
#[derive(Debug)]
pub struct ZipfStream {
    pacer: Pacer,
    pub(crate) ops: ZipfOps,
}

/// The memory-op side of a [`ZipfStream`]: rank draw, scatter and
/// store/load gate.
#[derive(Debug)]
pub(crate) struct ZipfOps {
    lines: u64,
    /// `x % lines` for the rank scatter.
    scatter: FastMod,
    rng: DeterministicRng,
    /// `lines` as a float: the CDF's upper bound `n`.
    n: f64,
    /// Whether the `s ≈ 1` (`n^u`) branch applies.
    skew_is_one: bool,
    /// `1 / e` with `e = 1 − skew` (general branch only).
    inv_e: f64,
    /// `nᵉ − 1` (general branch only).
    c: f64,
    write_gate: Bernoulli,
}

impl ZipfStream {
    /// Builds a stream of `instructions` total instructions.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one page or the skew is
    /// negative or NaN.
    pub fn new(cfg: &ZipfConfig, instructions: u64, seed: u64) -> Self {
        assert!(cfg.skew >= 0.0, "zipf skew must be non-negative");
        let lines = footprint_lines(cfg.footprint);
        let n = lines as f64;
        let e = 1.0 - cfg.skew;
        Self {
            pacer: Pacer::new(cfg.mem_per_kilo, instructions),
            ops: ZipfOps {
                lines,
                scatter: FastMod::new(lines),
                rng: DeterministicRng::seed(seed ^ 0x51BF_CAFE),
                n,
                skew_is_one: (cfg.skew - 1.0).abs() < 1e-9,
                inv_e: 1.0 / e,
                c: n.powf(e) - 1.0,
                write_gate: Bernoulli::new(cfg.write_fraction),
            },
        }
    }
}

impl ZipfOps {
    /// The rank of one raw RNG draw: `u = (raw >> 11)·2⁻⁵³` (the value
    /// [`DeterministicRng::unit`] makes of the same draw), clamped below
    /// 1 and pushed through the inverse CDF `x(u) = ((nᵉ−1)·u + 1)^(1/e)`
    /// (or `n^u` at `s ≈ 1`), then truncated and clamped to a rank in
    /// `[0, lines)`.
    // lint: hot-path
    #[inline]
    fn rank(&self, raw: u64) -> u64 {
        let u = ((raw >> 11) as f64 * UNIT).min(1.0 - 1e-12);
        let x = if self.skew_is_one {
            self.n.powf(u)
        } else {
            (self.c * u + 1.0).powf(self.inv_e)
        };
        (x as u64).clamp(1, self.lines) - 1
    }

    /// The next memory op, packed by [`mem_word`].
    // lint: hot-path
    #[inline]
    pub(crate) fn next_mem_op(&mut self) -> u64 {
        let raw = self.rng.raw();
        let rank = self.rank(raw);
        // SCATTER is prime and larger than any realistic line count, so
        // it is coprime with `lines` and the mapping is a permutation.
        let line = if self.lines < SCATTER {
            self.scatter.modulo(rank.wrapping_mul(SCATTER))
        } else {
            rank
        };
        mem_word(line * LINE, self.write_gate.draw(&mut self.rng))
    }
}

impl InstructionStream for ZipfStream {
    // lint: hot-path
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        self.pacer.next_op(|| self.ops.next_mem_op())
    }
}

/// Deterministic strided loop/scan stream.
#[derive(Debug)]
pub struct LoopStream {
    pacer: Pacer,
    pub(crate) ops: LoopOps,
}

/// The memory-op side of a [`LoopStream`]: strided cursor and
/// store/load gate.
#[derive(Debug)]
pub(crate) struct LoopOps {
    lines: u64,
    stride: u64,
    cursor: u64,
    rng: DeterministicRng,
    write_gate: Bernoulli,
}

impl LoopStream {
    /// Builds a stream of `instructions` total instructions.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one page.
    pub fn new(cfg: &LoopConfig, instructions: u64, seed: u64) -> Self {
        let lines = footprint_lines(cfg.footprint);
        let mut rng = DeterministicRng::seed(seed ^ 0x100C_5CAD);
        let cursor = rng.below(lines);
        Self {
            pacer: Pacer::new(cfg.mem_per_kilo, instructions),
            ops: LoopOps {
                lines,
                stride: (cfg.stride_lines.max(1) as u64).min(lines),
                cursor,
                rng,
                write_gate: Bernoulli::new(cfg.write_fraction),
            },
        }
    }
}

impl LoopOps {
    /// The next memory op, packed by [`mem_word`].
    // lint: hot-path
    #[inline]
    pub(crate) fn next_mem_op(&mut self) -> u64 {
        let addr = self.cursor * LINE;
        // `stride <= lines` and `cursor < lines`, so the sum is below
        // `2 * lines` and one conditional subtract replaces the modulo.
        let mut next = self.cursor + self.stride;
        if next >= self.lines {
            next -= self.lines;
        }
        self.cursor = next;
        mem_word(addr, self.write_gate.draw(&mut self.rng))
    }
}

impl InstructionStream for LoopStream {
    // lint: hot-path
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        self.pacer.next_op(|| self.ops.next_mem_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(mut s: impl InstructionStream) -> (u64, Vec<u64>) {
        let mut instr = 0u64;
        let mut addrs = Vec::new();
        while let Some(op) = s.next_op() {
            match op {
                Op::Compute(n) => instr += n as u64,
                Op::Load(a) | Op::Store(a) => {
                    instr += 1;
                    addrs.push(a);
                }
            }
        }
        (instr, addrs)
    }

    #[test]
    fn zipf_emits_exact_budget_and_stays_in_footprint() {
        let cfg = ZipfConfig::default();
        let s = ZipfStream::new(&cfg, 50_000, 1);
        let fp = s.ops.lines * LINE;
        let (instr, addrs) = drain(s);
        assert_eq!(instr, 50_000);
        assert!(!addrs.is_empty());
        assert!(addrs.iter().all(|&a| a < fp));
    }

    #[test]
    fn loop_emits_exact_budget_and_stays_in_footprint() {
        let cfg = LoopConfig::default();
        let s = LoopStream::new(&cfg, 50_000, 2);
        let fp = s.ops.lines * LINE;
        let (instr, addrs) = drain(s);
        assert_eq!(instr, 50_000);
        assert!(addrs.iter().all(|&a| a < fp));
    }

    #[test]
    fn higher_skew_concentrates_accesses() {
        // Share of accesses landing on the single most popular page.
        let top_share = |skew: f64| {
            let cfg = ZipfConfig {
                skew,
                ..ZipfConfig::default()
            };
            let (_, addrs) = drain(ZipfStream::new(&cfg, 200_000, 3));
            let mut pages = std::collections::BTreeMap::new();
            for a in &addrs {
                *pages.entry(a / 4096).or_insert(0u64) += 1;
            }
            let max = pages.values().copied().max().unwrap_or(0);
            max as f64 / addrs.len() as f64
        };
        let flat = top_share(0.0);
        let skewed = top_share(1.2);
        assert!(
            skewed > flat * 4.0,
            "skew 1.2 share {skewed} vs uniform {flat}"
        );
    }

    /// Skews that exercise every branch of the rank formula: uniform,
    /// moderate, the `|s - 1| < 1e-9` log branch (exactly and from both
    /// sides), YCSB-style 0.99, and strongly concentrated.
    fn any_skew() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(0.5),
            Just(0.99),
            Just(1.0),
            Just(1.0 - 5e-10),
            Just(1.0 + 5e-10),
            Just(1.2),
            Just(1.8),
            (1u32..200).prop_map(|m| f64::from(m) / 100.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The rank's contract over every skew branch and footprints up
        /// to 2²⁶ lines: draw 0 is rank 0, every rank is below `lines`,
        /// and the rank never decreases as the draw grows.
        #[test]
        fn rank_is_in_range_and_monotone_in_the_draw(
            skew in any_skew(),
            pages in prop_oneof![1u64..64, 64u64..(1 << 20)],
            seed in any::<u64>(),
        ) {
            let cfg = ZipfConfig {
                footprint: ByteSize::kib(4 * pages),
                skew,
                ..ZipfConfig::default()
            };
            let s = ZipfStream::new(&cfg, 0, 0);
            prop_assert_eq!(s.ops.rank(0), 0);
            let mut rng = DeterministicRng::seed(seed);
            let mut draws: Vec<u64> = (0..512).map(|_| rng.raw()).collect();
            draws.push(u64::MAX);
            draws.sort_unstable();
            let ranks: Vec<u64> = draws.iter().map(|&d| s.ops.rank(d)).collect();
            prop_assert!(ranks[ranks.len() - 1] < s.ops.lines, "skew {}", skew);
            for pair in ranks.windows(2) {
                prop_assert!(pair[0] <= pair[1], "skew {}: rank fell as the draw grew", skew);
            }
        }

        /// The conditional-subtract wrap is the modulo walk: every
        /// address is the previous one plus the stride (clamped to the
        /// footprint), modulo the footprint.
        #[test]
        fn loop_walk_is_the_modulo_reference(
            pages in 1u64..64,
            stride in 1u32..512,
            seed in any::<u64>(),
        ) {
            let cfg = LoopConfig {
                footprint: ByteSize::kib(4 * pages),
                stride_lines: stride,
                mem_per_kilo: 1000,
                write_fraction: 0.5,
            };
            let lines = pages * 4096 / LINE;
            let stride = u64::from(stride).min(lines);
            let (_, addrs) = drain(LoopStream::new(&cfg, 2_000, seed));
            prop_assert!(addrs[0] / LINE < lines);
            for pair in addrs.windows(2) {
                prop_assert_eq!(pair[1] / LINE, (pair[0] / LINE + stride) % lines);
            }
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let run = |seed| drain(ZipfStream::new(&ZipfConfig::default(), 20_000, seed)).1;
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let run = |seed| drain(LoopStream::new(&LoopConfig::default(), 20_000, seed)).1;
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn intensity_matches_config() {
        let cfg = ZipfConfig {
            mem_per_kilo: 100,
            ..ZipfConfig::default()
        };
        let (instr, addrs) = drain(ZipfStream::new(&cfg, 200_000, 5));
        let per_kilo = addrs.len() as f64 * 1000.0 / instr as f64;
        assert!((per_kilo - 100.0).abs() < 5.0, "mem/kilo {per_kilo}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn sub_page_footprint_rejected() {
        let cfg = ZipfConfig {
            footprint: ByteSize::bytes_exact(512),
            ..ZipfConfig::default()
        };
        ZipfStream::new(&cfg, 1000, 0);
    }
}

/// The shared [`Pacer`] against test-only copies of the pacing it
/// replaced: `AppStream`'s private copy (with its unclamped gap formula)
/// and the earlier `Pacer`, both with float `as u64` casts and an
/// `Option<Op>` pending op. The copies draw their memory ops from the
/// same generators but decode the packed words themselves, and the Zipf
/// copy scatters with `%` instead of [`FastMod`], so the comparison
/// covers the packed pending word, the store bit, the integer gap
/// conversions and the scatter.
#[cfg(test)]
mod exactness {
    use super::*;
    use crate::stream::AppOps;
    use crate::{AppSpec, AppStream};
    use proptest::prelude::*;

    /// The reference's own decode of a packed memory-op word.
    fn op_of(word: u64) -> Op {
        if word & 1 == 1 {
            Op::Store(word - 1)
        } else {
            Op::Load(word)
        }
    }

    /// `AppStream`'s pacing before it used the shared pacer.
    struct OldAppStream {
        gap_per_mem: f64,
        gap_acc: f64,
        instructions_left: u64,
        pending: Option<Op>,
        ops: AppOps,
    }

    impl OldAppStream {
        fn new(spec: &AppSpec, instructions: u64, seed: u64) -> Self {
            let mpk = spec.mem_per_kilo as f64;
            Self {
                gap_per_mem: (1000.0 - mpk).max(0.0) / mpk,
                gap_acc: 0.0,
                instructions_left: instructions,
                pending: None,
                ops: AppStream::new(spec, 0, seed).ops,
            }
        }
    }

    impl InstructionStream for OldAppStream {
        fn next_op(&mut self) -> Option<Op> {
            if let Some(op) = self.pending.take() {
                if self.instructions_left == 0 {
                    return None;
                }
                self.instructions_left -= 1;
                return Some(op);
            }
            if self.instructions_left == 0 {
                return None;
            }
            self.gap_acc += self.gap_per_mem;
            let gap = (self.gap_acc as u64).min(self.instructions_left.saturating_sub(1));
            self.gap_acc -= gap as f64;
            let mem = op_of(self.ops.next_mem_op());
            if gap == 0 {
                self.instructions_left -= 1;
                return Some(mem);
            }
            self.pending = Some(mem);
            self.instructions_left -= gap;
            Some(Op::Compute(gap as u32))
        }
    }

    /// The shared pacer as it was before the packed pending word.
    struct OldPacer {
        gap_per_mem: f64,
        gap_acc: f64,
        instructions_left: u64,
        pending: Option<Op>,
    }

    impl OldPacer {
        fn new(mem_per_kilo: u32, instructions: u64) -> Self {
            let mpk = mem_per_kilo.max(1) as f64;
            Self {
                gap_per_mem: (1000.0 - mpk).max(0.0) / mpk,
                gap_acc: 0.0,
                instructions_left: instructions,
                pending: None,
            }
        }

        fn needs_mem(&self) -> bool {
            self.pending.is_none() && self.instructions_left > 0
        }

        fn next_op(&mut self, mem: Option<Op>) -> Option<Op> {
            if let Some(op) = self.pending.take() {
                if self.instructions_left == 0 {
                    return None;
                }
                self.instructions_left -= 1;
                return Some(op);
            }
            if self.instructions_left == 0 {
                return None;
            }
            self.gap_acc += self.gap_per_mem;
            let gap = (self.gap_acc as u64).min(self.instructions_left.saturating_sub(1));
            self.gap_acc -= gap as f64;
            let mem = mem?;
            if gap == 0 {
                self.instructions_left -= 1;
                return Some(mem);
            }
            self.pending = Some(mem);
            self.instructions_left -= gap;
            Some(Op::Compute(gap as u32))
        }
    }

    /// A Zipf stream on the old pacer, scattering with `%`.
    struct OldZipfStream {
        pacer: OldPacer,
        ops: ZipfOps,
    }

    impl InstructionStream for OldZipfStream {
        fn next_op(&mut self) -> Option<Op> {
            let mem = self.pacer.needs_mem().then(|| {
                let o = &mut self.ops;
                let raw = o.rng.raw();
                let rank = o.rank(raw);
                let line = if o.lines < SCATTER {
                    rank.wrapping_mul(SCATTER) % o.lines
                } else {
                    rank
                };
                let addr = line * LINE;
                if o.write_gate.draw(&mut o.rng) {
                    Op::Store(addr)
                } else {
                    Op::Load(addr)
                }
            });
            self.pacer.next_op(mem)
        }
    }

    /// A loop stream on the old pacer.
    struct OldLoopStream {
        pacer: OldPacer,
        ops: LoopOps,
    }

    impl InstructionStream for OldLoopStream {
        fn next_op(&mut self) -> Option<Op> {
            let mem = self
                .pacer
                .needs_mem()
                .then(|| op_of(self.ops.next_mem_op()));
            self.pacer.next_op(mem)
        }
    }

    /// Both streams emit the same ops, in order, and end together.
    fn same_ops(
        mut new: impl InstructionStream,
        mut old: impl InstructionStream,
    ) -> Result<(), TestCaseError> {
        let mut i = 0u64;
        loop {
            let (a, b) = (new.next_op(), old.next_op());
            prop_assert_eq!(a, b, "op {}", i);
            if a.is_none() {
                return Ok(());
            }
            i += 1;
        }
    }

    fn any_budget() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..64, 64u64..200_000]
    }

    fn any_mem_per_kilo() -> impl Strategy<Value = u32> {
        prop_oneof![Just(1u32), Just(1000u32), 1u32..1001]
    }

    fn any_write_fraction() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            (0u64..1 << 53).prop_map(|k| k as f64 * UNIT),
        ]
    }

    fn any_pages() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..64, 64u64..(1 << 16)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every Table II app, at any scale that leaves a page per copy,
        /// with and without phase churn.
        #[test]
        fn app_stream_matches_its_old_pacing(
            app in prop::sample::select(AppSpec::table2()),
            factor in prop_oneof![1u64..64, 64u64..(1 << 19)],
            phases in prop_oneof![Just(0u64), 1u64..4_000],
            budget in any_budget(),
            seed in any::<u64>(),
        ) {
            let spec = app.scaled(factor).with_phases(phases);
            if spec.per_copy_footprint().bytes() < 4096 {
                return Ok(());
            }
            same_ops(
                AppStream::new(&spec, budget, seed),
                OldAppStream::new(&spec, budget, seed),
            )?;
        }

        #[test]
        fn zipf_stream_matches_the_old_pacer(
            pages in any_pages(),
            skew in prop_oneof![
                Just(0.0),
                Just(0.99),
                Just(1.0),
                (0u32..2_000).prop_map(|m| f64::from(m) / 1_000.0),
            ],
            mem_per_kilo in any_mem_per_kilo(),
            write_fraction in any_write_fraction(),
            budget in any_budget(),
            seed in any::<u64>(),
        ) {
            let cfg = ZipfConfig {
                footprint: ByteSize::kib(4 * pages),
                skew,
                mem_per_kilo,
                write_fraction,
            };
            let new = ZipfStream::new(&cfg, budget, seed);
            let old = OldZipfStream {
                pacer: OldPacer::new(mem_per_kilo, budget),
                ops: ZipfStream::new(&cfg, 0, seed).ops,
            };
            same_ops(new, old)?;
        }

        #[test]
        fn loop_stream_matches_the_old_pacer(
            pages in any_pages(),
            stride in prop_oneof![Just(1u32), 1u32..4096, any::<u32>()],
            mem_per_kilo in any_mem_per_kilo(),
            write_fraction in any_write_fraction(),
            budget in any_budget(),
            seed in any::<u64>(),
        ) {
            let cfg = LoopConfig {
                footprint: ByteSize::kib(4 * pages),
                stride_lines: stride,
                mem_per_kilo,
                write_fraction,
            };
            let new = LoopStream::new(&cfg, budget, seed);
            let old = OldLoopStream {
                pacer: OldPacer::new(mem_per_kilo, budget),
                ops: LoopStream::new(&cfg, 0, seed).ops,
            };
            same_ops(new, old)?;
        }
    }
}
