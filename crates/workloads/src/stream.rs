//! Turning an [`AppSpec`] into a deterministic instruction stream.

use chameleon_cpu::{InstructionStream, Op};
use chameleon_simkit::rng::DeterministicRng;

use crate::decode::OpMixGates;
use crate::AppSpec;

/// A deterministic synthetic instruction stream for one copy of an
/// application.
///
/// Three access populations reproduce the app's Table II characteristics:
///
/// * **streaming** references walk the whole per-copy footprint
///   sequentially at line granularity — compulsory LLC misses with high
///   segment-level spatial locality (what makes 2KB PoM segments work);
/// * **medium working-set** references revisit a multi-MB region in short
///   runs — LLC misses with the temporal reuse a fast memory tier can
///   capture;
/// * **hot-set** references hit a small, reused region — absorbed almost
///   entirely by the SRAM hierarchy.
///
/// Between memory operations the stream issues enough compute
/// instructions to hit the spec's `mem_per_kilo` intensity.
#[derive(Debug)]
pub struct AppStream {
    footprint_lines: u64,
    hot_lines: u64,
    /// Line index where the hot set starts (randomised per copy).
    hot_base: u64,
    stream_fraction: f64,
    write_fraction: f64,
    /// Compute instructions inserted per memory operation (fractional,
    /// carried in an accumulator).
    gap_per_mem: f64,
    gap_acc: f64,
    cursor: u64,
    /// Sequential lines remaining before the stream jumps.
    run_left: u32,
    run_lines: u32,
    /// Medium working set: base line, size in lines, short-run state.
    medium_base: u64,
    medium_lines: u64,
    medium_cursor: u64,
    medium_run_left: u32,
    medium_share: f64,
    /// Phase churn: memory ops until the hot/medium regions drift.
    phase_mem_ops: u64,
    phase_countdown: u64,
    instructions_left: u64,
    rng: DeterministicRng,
    /// Pending memory op left over after emitting a compute gap.
    pending: Option<Op>,
    /// Precomputed Table-II op-mix gates (integer thresholds replaying
    /// the float Bernoulli draws exactly).
    gates: OpMixGates,
    /// `false` routes the per-op draws through the legacy float decoder
    /// — the differential-test oracle ([`Self::set_table_decode`]).
    table_decode: bool,
}

impl AppStream {
    /// Builds a stream of `instructions` total instructions for one copy
    /// of `spec`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the per-copy footprint is smaller than one page.
    pub fn new(spec: &AppSpec, instructions: u64, seed: u64) -> Self {
        let footprint = spec.per_copy_footprint().bytes();
        assert!(
            footprint >= 4096,
            "per-copy footprint {footprint} too small; lower the scale factor"
        );
        let footprint_lines = footprint / 64;
        // The hot set is sized to live in the private SRAM caches (the
        // paper's LLC-missing traffic is dominated by streaming/strided
        // references, not hot reuse).
        let hot_bytes = ((footprint as f64 * spec.hot_fraction) as u64).clamp(4096, 16 << 10);
        let hot_lines = (hot_bytes / 64).min(footprint_lines);
        let gap_per_mem = (1000.0 - spec.mem_per_kilo as f64).max(0.0) / spec.mem_per_kilo as f64;
        let mut rng = DeterministicRng::seed(seed ^ 0xC0FF_EE00);
        let hot_base = rng.below(footprint_lines.saturating_sub(hot_lines).max(1));
        let cursor = rng.below(footprint_lines);
        // Medium working set: ~2% of the footprint, bounded to stay well
        // above the SRAM caches yet small relative to the stacked DRAM so
        // that hot segments rarely contend for the same segment group
        // (contention scales quadratically with hot density). Low-MPKI
        // applications touch DRAM rarely, so their DRAM-visible working
        // set is proportionally smaller — without this, their sparse
        // traffic never trains the promotion machinery.
        let intensity = (spec.llc_mpki / 32.0).clamp(0.05, 1.0);
        let medium_bytes = (((footprint / 56) as f64 * intensity) as u64).clamp(128 << 10, 1 << 20);
        let medium_lines = (medium_bytes / 64).min(footprint_lines);
        let medium_base = rng.below(footprint_lines.saturating_sub(medium_lines).max(1));
        Self {
            footprint_lines,
            hot_lines,
            hot_base,
            stream_fraction: spec.stream_fraction,
            write_fraction: spec.write_fraction,
            gap_per_mem,
            gap_acc: 0.0,
            cursor,
            run_left: spec.stream_run_lines,
            run_lines: spec.stream_run_lines.max(1),
            medium_base,
            medium_lines,
            medium_cursor: 0,
            medium_run_left: 0,
            medium_share: spec.medium_share,
            phase_mem_ops: spec.phase_mem_ops,
            phase_countdown: spec.phase_mem_ops,
            instructions_left: instructions,
            rng,
            pending: None,
            gates: spec.op_gates(),
            table_decode: true,
        }
    }

    /// Selects the decoder: `true` (the default) uses the precomputed
    /// integer op-mix gates, `false` the legacy float Bernoulli draws.
    /// Both emit the identical op sequence — the switch exists so the
    /// differential proptests can compare them.
    pub fn set_table_decode(&mut self, enabled: bool) {
        self.table_decode = enabled;
    }

    #[inline]
    fn draw_stream(&mut self) -> bool {
        if self.table_decode {
            self.gates.stream.draw(&mut self.rng)
        } else {
            self.rng.chance(self.stream_fraction)
        }
    }

    #[inline]
    fn draw_medium(&mut self) -> bool {
        if self.table_decode {
            self.gates.medium.draw(&mut self.rng)
        } else {
            self.rng.chance(self.medium_share)
        }
    }

    #[inline]
    fn draw_write(&mut self) -> bool {
        if self.table_decode {
            self.gates.write.draw(&mut self.rng)
        } else {
            self.rng.chance(self.write_fraction)
        }
    }

    fn next_mem_op(&mut self) -> Op {
        if self.phase_mem_ops > 0 {
            self.phase_countdown -= 1;
            if self.phase_countdown == 0 {
                // Phase change: the working sets move elsewhere.
                self.phase_countdown = self.phase_mem_ops;
                self.hot_base = self
                    .rng
                    .below(self.footprint_lines.saturating_sub(self.hot_lines).max(1));
                self.medium_base = self.rng.below(
                    self.footprint_lines
                        .saturating_sub(self.medium_lines)
                        .max(1),
                );
            }
        }
        let addr = if self.draw_stream() {
            if self.draw_medium() {
                // Medium working set: short sequential runs revisiting a
                // bounded, reused region.
                if self.medium_run_left == 0 {
                    self.medium_cursor = self.rng.below(self.medium_lines);
                    self.medium_run_left = 8;
                }
                self.medium_run_left -= 1;
                let a = (self.medium_base + self.medium_cursor) * 64;
                self.medium_cursor += 1;
                if self.medium_cursor == self.medium_lines {
                    self.medium_cursor = 0;
                }
                a
            } else {
                // Sequential run, jumping to a random position when the
                // run (the app's spatial-locality length) is exhausted.
                if self.run_left == 0 {
                    self.cursor = self.rng.below(self.footprint_lines);
                    self.run_left = self.run_lines;
                }
                self.run_left -= 1;
                let a = self.cursor * 64;
                self.cursor += 1;
                if self.cursor == self.footprint_lines {
                    self.cursor = 0;
                }
                a
            }
        } else {
            (self.hot_base + self.rng.below(self.hot_lines)) * 64
        };
        if self.draw_write() {
            Op::Store(addr)
        } else {
            Op::Load(addr)
        }
    }
}

impl InstructionStream for AppStream {
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
        // Emit the compute gap before the next memory op (if any).
        self.gap_acc += self.gap_per_mem;
        let gap = (self.gap_acc as u64).min(self.instructions_left.saturating_sub(1));
        self.gap_acc -= gap as f64;
        let mem = self.next_mem_op();
        if gap == 0 {
            self.instructions_left -= 1;
            return Some(mem);
        }
        self.pending = Some(mem);
        self.instructions_left -= gap;
        Some(Op::Compute(gap as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppSpec;

    fn spec() -> AppSpec {
        AppSpec::by_name("mcf").unwrap().scaled(64)
    }

    fn drain(mut s: AppStream) -> (u64, u64, u64) {
        let (mut instr, mut mem, mut stores) = (0u64, 0u64, 0u64);
        while let Some(op) = s.next_op() {
            match op {
                Op::Compute(n) => instr += n as u64,
                Op::Load(_) => {
                    instr += 1;
                    mem += 1;
                }
                Op::Store(_) => {
                    instr += 1;
                    mem += 1;
                    stores += 1;
                }
            }
        }
        (instr, mem, stores)
    }

    #[test]
    fn emits_exactly_the_instruction_budget() {
        let s = AppStream::new(&spec(), 100_000, 1);
        let (instr, _, _) = drain(s);
        assert_eq!(instr, 100_000);
    }

    #[test]
    fn memory_intensity_matches_spec() {
        let sp = spec();
        let s = AppStream::new(&sp, 200_000, 2);
        let (instr, mem, _) = drain(s);
        let per_kilo = mem as f64 * 1000.0 / instr as f64;
        let target = sp.mem_per_kilo as f64;
        assert!(
            (per_kilo - target).abs() / target < 0.05,
            "mem/kilo {per_kilo} vs target {target}"
        );
    }

    #[test]
    fn write_fraction_approximate() {
        let sp = spec();
        let s = AppStream::new(&sp, 300_000, 3);
        let (_, mem, stores) = drain(s);
        let frac = stores as f64 / mem as f64;
        assert!((frac - sp.write_fraction).abs() < 0.05, "write frac {frac}");
    }

    #[test]
    fn addresses_stay_inside_footprint() {
        let sp = spec();
        let fp = sp.per_copy_footprint().bytes();
        let mut s = AppStream::new(&sp, 50_000, 4);
        while let Some(op) = s.next_op() {
            if let Op::Load(a) | Op::Store(a) = op {
                assert!(a < fp, "address {a:#x} outside footprint {fp:#x}");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let collect = |seed| {
            let mut s = AppStream::new(&spec(), 10_000, seed);
            let mut v = Vec::new();
            while let Some(op) = s.next_op() {
                v.push(format!("{op:?}"));
            }
            v
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn streaming_runs_are_sequential_with_jumps() {
        // A pure-streaming spec produces consecutive line addresses
        // within a run, and roughly one jump per `stream_run_lines`.
        let mut sp = spec();
        sp.stream_fraction = 1.0;
        sp.medium_share = 0.0;
        sp.stream_run_lines = 32;
        let mut s = AppStream::new(&sp, 10_000, 5);
        let (mut seq, mut jumps, mut total) = (0u64, 0u64, 0u64);
        let mut last = None;
        while let Some(op) = s.next_op() {
            if let Op::Load(a) | Op::Store(a) = op {
                if let Some(prev) = last {
                    total += 1;
                    if a == prev + 64 {
                        seq += 1;
                    } else {
                        jumps += 1;
                    }
                }
                last = Some(a);
            }
        }
        assert!(seq as f64 / total as f64 > 0.9, "mostly sequential");
        let expected_jumps = total / 32;
        assert!(
            jumps >= expected_jumps / 2 && jumps <= expected_jumps * 2,
            "jumps {jumps} vs expected ~{expected_jumps}"
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_footprint_rejected() {
        let sp = AppSpec::by_name("miniGhost").unwrap().scaled(1 << 20);
        AppStream::new(&sp, 1000, 0);
    }
}
