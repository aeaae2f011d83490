//! Synthetic access-pattern generators beyond the Table II calibration:
//! Zipf-distributed point accesses with tunable skew, and loop/scan
//! streams. The scenario layer mixes these with [`crate::AppStream`]s to
//! model datacenter tenants whose reuse behaviour the Table II apps do
//! not cover — a skewed key-value working set rewards hot-page promotion,
//! while a pure scan defeats any reuse-based placement policy.

use chameleon_cpu::{InstructionStream, Op};
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

/// Fractional compute-gap pacing shared by the generators: inserts enough
/// `Op::Compute` instructions between memory operations to hit a
/// `mem_per_kilo` intensity, carrying the remainder in an accumulator
/// (the same scheme as [`crate::AppStream`]).
#[derive(Debug)]
struct Pacer {
    gap_per_mem: f64,
    gap_acc: f64,
    instructions_left: u64,
    pending: Option<Op>,
}

impl Pacer {
    fn new(mem_per_kilo: u32, instructions: u64) -> Self {
        let mpk = mem_per_kilo.max(1) as f64;
        Self {
            gap_per_mem: (1000.0 - mpk).max(0.0) / mpk,
            gap_acc: 0.0,
            instructions_left: instructions,
            pending: None,
        }
    }

    /// Whether the next call to [`Pacer::next_op`] needs a fresh memory
    /// op from the generator.
    fn needs_mem(&self) -> bool {
        self.pending.is_none() && self.instructions_left > 0
    }

    /// Emits the next op. `mem` must be `Some` exactly when
    /// [`Pacer::needs_mem`] returned true.
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
    lines: u64,
    pacer: Pacer,
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
            lines,
            pacer: Pacer::new(cfg.mem_per_kilo, instructions),
            rng: DeterministicRng::seed(seed ^ 0x51BF_CAFE),
            n,
            skew_is_one: (cfg.skew - 1.0).abs() < 1e-9,
            inv_e: 1.0 / e,
            c: n.powf(e) - 1.0,
            write_gate: Bernoulli::new(cfg.write_fraction),
        }
    }

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

    fn next_mem_op(&mut self) -> Op {
        let raw = self.rng.raw();
        let rank = self.rank(raw);
        // SCATTER is prime and larger than any realistic line count, so
        // it is coprime with `lines` and the mapping is a permutation.
        let line = if self.lines < SCATTER {
            rank.wrapping_mul(SCATTER) % self.lines
        } else {
            rank
        };
        let addr = line * LINE;
        if self.write_gate.draw(&mut self.rng) {
            Op::Store(addr)
        } else {
            Op::Load(addr)
        }
    }
}

impl InstructionStream for ZipfStream {
    fn next_op(&mut self) -> Option<Op> {
        let mem = self.pacer.needs_mem().then(|| self.next_mem_op());
        self.pacer.next_op(mem)
    }
}

/// Deterministic strided loop/scan stream.
#[derive(Debug)]
pub struct LoopStream {
    lines: u64,
    stride: u64,
    cursor: u64,
    pacer: Pacer,
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
            lines,
            stride: (cfg.stride_lines.max(1) as u64).min(lines),
            cursor,
            pacer: Pacer::new(cfg.mem_per_kilo, instructions),
            rng,
            write_gate: Bernoulli::new(cfg.write_fraction),
        }
    }

    fn next_mem_op(&mut self) -> Op {
        let addr = self.cursor * LINE;
        // `stride <= lines` and `cursor < lines`, so the sum is below
        // `2 * lines` and one conditional subtract replaces the modulo.
        let mut next = self.cursor + self.stride;
        if next >= self.lines {
            next -= self.lines;
        }
        self.cursor = next;
        if self.write_gate.draw(&mut self.rng) {
            Op::Store(addr)
        } else {
            Op::Load(addr)
        }
    }
}

impl InstructionStream for LoopStream {
    fn next_op(&mut self) -> Option<Op> {
        let mem = self.pacer.needs_mem().then(|| self.next_mem_op());
        self.pacer.next_op(mem)
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
        let fp = s.lines * LINE;
        let (instr, addrs) = drain(s);
        assert_eq!(instr, 50_000);
        assert!(!addrs.is_empty());
        assert!(addrs.iter().all(|&a| a < fp));
    }

    #[test]
    fn loop_emits_exact_budget_and_stays_in_footprint() {
        let cfg = LoopConfig::default();
        let s = LoopStream::new(&cfg, 50_000, 2);
        let fp = s.lines * LINE;
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
            prop_assert_eq!(s.rank(0), 0);
            let mut rng = DeterministicRng::seed(seed);
            let mut draws: Vec<u64> = (0..512).map(|_| rng.raw()).collect();
            draws.push(u64::MAX);
            draws.sort_unstable();
            let ranks: Vec<u64> = draws.iter().map(|&d| s.rank(d)).collect();
            prop_assert!(ranks[ranks.len() - 1] < s.lines, "skew {}", skew);
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
