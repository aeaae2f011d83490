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

use crate::decode::{Bernoulli, ZipfTable};

/// Cache-line size the generators address at.
const LINE: u64 = 64;

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
#[derive(Debug)]
pub struct ZipfStream {
    lines: u64,
    skew: f64,
    write_fraction: f64,
    pacer: Pacer,
    rng: DeterministicRng,
    /// Precomputed head-boundary rank table (see [`crate::decode`]).
    table: ZipfTable,
    write_gate: Bernoulli,
    /// `false` routes draws through the legacy float decoder — the
    /// differential-test oracle ([`Self::set_table_decode`]).
    table_decode: bool,
}

impl ZipfStream {
    /// Builds a stream of `instructions` total instructions.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one page or the skew is
    /// negative.
    pub fn new(cfg: &ZipfConfig, instructions: u64, seed: u64) -> Self {
        assert!(cfg.skew >= 0.0, "zipf skew must be non-negative");
        let lines = footprint_lines(cfg.footprint);
        Self {
            lines,
            skew: cfg.skew,
            write_fraction: cfg.write_fraction,
            pacer: Pacer::new(cfg.mem_per_kilo, instructions),
            rng: DeterministicRng::seed(seed ^ 0x51BF_CAFE),
            table: ZipfTable::new(lines, cfg.skew),
            write_gate: Bernoulli::new(cfg.write_fraction),
            table_decode: true,
        }
    }

    /// Selects the decoder: `true` (the default) draws ranks from the
    /// precomputed table, `false` from the legacy float CDF inversion.
    /// Both emit the identical op sequence — the switch exists so the
    /// differential proptests can compare them.
    pub fn set_table_decode(&mut self, enabled: bool) {
        self.table_decode = enabled;
    }

    /// Draws a rank in `[0, lines)` with `1/r^skew` falloff — the legacy
    /// float path, kept verbatim as the differential-test oracle.
    fn rank_legacy(&mut self) -> u64 {
        let n = self.lines as f64;
        let u = self.rng.unit().clamp(0.0, 1.0 - 1e-12);
        let x = if (self.skew - 1.0).abs() < 1e-9 {
            // s ≈ 1: CDF ∝ ln(x), so x = n^u.
            n.powf(u)
        } else {
            let e = 1.0 - self.skew;
            ((n.powf(e) - 1.0) * u + 1.0).powf(1.0 / e)
        };
        (x as u64).clamp(1, self.lines) - 1
    }

    fn next_mem_op(&mut self) -> Op {
        let rank = if self.table_decode {
            self.table.rank(self.rng.raw())
        } else {
            self.rank_legacy()
        };
        // SCATTER is prime and larger than any realistic line count, so
        // it is coprime with `lines` and the mapping is a permutation.
        let line = if self.lines < SCATTER {
            rank.wrapping_mul(SCATTER) % self.lines
        } else {
            rank
        };
        let addr = line * LINE;
        let is_write = if self.table_decode {
            self.write_gate.draw(&mut self.rng)
        } else {
            self.rng.chance(self.write_fraction)
        };
        if is_write {
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
    write_fraction: f64,
    pacer: Pacer,
    rng: DeterministicRng,
    write_gate: Bernoulli,
    /// `false` routes draws through the legacy float decoder — the
    /// differential-test oracle ([`Self::set_table_decode`]).
    table_decode: bool,
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
            write_fraction: cfg.write_fraction,
            pacer: Pacer::new(cfg.mem_per_kilo, instructions),
            rng,
            write_gate: Bernoulli::new(cfg.write_fraction),
            table_decode: true,
        }
    }

    /// Selects the decoder: `true` (the default) advances the scan
    /// cursor with a conditional subtract and gates stores through the
    /// integer threshold; `false` is the legacy modulo + float path.
    /// Both emit the identical op sequence.
    pub fn set_table_decode(&mut self, enabled: bool) {
        self.table_decode = enabled;
    }

    fn next_mem_op(&mut self) -> Op {
        let addr = self.cursor * LINE;
        let is_write;
        if self.table_decode {
            // `stride <= lines` and `cursor < lines`, so the sum is below
            // `2 * lines` and one conditional subtract replaces the
            // hardware divide — exactly.
            let mut next = self.cursor + self.stride;
            if next >= self.lines {
                next -= self.lines;
            }
            self.cursor = next;
            is_write = self.write_gate.draw(&mut self.rng);
        } else {
            self.cursor = (self.cursor + self.stride) % self.lines;
            is_write = self.rng.chance(self.write_fraction);
        }
        if is_write {
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

    #[test]
    fn loop_is_strided_and_wraps() {
        let cfg = LoopConfig {
            footprint: ByteSize::kib(64),
            stride_lines: 4,
            mem_per_kilo: 1000,
            write_fraction: 0.0,
        };
        let (_, addrs) = drain(LoopStream::new(&cfg, 5_000, 4));
        let lines = 64 * 1024 / 64;
        for pair in addrs.windows(2) {
            let cur = pair[0] / 64;
            let next = pair[1] / 64;
            assert_eq!(next, (cur + 4) % lines, "stride walk with wraparound");
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
