//! Property-based tests for the core model.

use chameleon_cpu::{Core, CoreConfig, InstructionStream, MemorySystem, MultiCore, Op, Reply};
use proptest::prelude::*;

struct FixedLatency(u64);
impl MemorySystem for FixedLatency {
    fn access(&mut self, _core: usize, _addr: u64, _write: bool, _now: u64) -> Reply {
        Reply {
            latency: self.0,
            fault_stall: 0,
        }
    }
}

struct VecStream(Vec<Op>, usize);
impl InstructionStream for VecStream {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.0.get(self.1).copied();
        self.1 += 1;
        op
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..50).prop_map(Op::Compute),
        (0u64..(1 << 20)).prop_map(Op::Load),
        (0u64..(1 << 20)).prop_map(Op::Store),
    ]
}

proptest! {
    /// Retired instructions equal the stream's instruction content, and
    /// cycles are at least instructions (IPC <= 1).
    #[test]
    fn instruction_accounting_is_exact(
        ops in prop::collection::vec(op_strategy(), 1..200),
        latency in 1u64..2000,
    ) {
        let expected: u64 = ops.iter().map(|op| match op {
            Op::Compute(n) => *n as u64,
            _ => 1,
        }).sum();
        let mut core = Core::new(0, CoreConfig::default());
        let mut mem = FixedLatency(latency);
        for op in &ops {
            core.step(*op, &mut mem);
        }
        core.drain();
        prop_assert_eq!(core.report().instructions, expected);
        prop_assert!(core.report().cycles >= expected, "IPC cannot exceed 1");
        prop_assert!(core.report().ipc() <= 1.0 + 1e-12);
    }

    /// Higher memory latency never makes a core finish earlier.
    #[test]
    fn latency_monotonicity(
        ops in prop::collection::vec(op_strategy(), 1..150),
        lat_low in 1u64..500,
        extra in 1u64..500,
    ) {
        let run = |latency: u64| {
            let mut core = Core::new(0, CoreConfig::default());
            let mut mem = FixedLatency(latency);
            for op in &ops {
                core.step(*op, &mut mem);
            }
            core.drain();
            core.report().cycles
        };
        prop_assert!(run(lat_low + extra) >= run(lat_low));
    }

    /// More MLP never hurts (same stream, same latency).
    #[test]
    fn mlp_monotonicity(
        loads in 1usize..100,
        latency in 50u64..2000,
    ) {
        let run = |mlp: usize| {
            let mut core = Core::new(0, CoreConfig { mlp, rob_window: 512 });
            let mut mem = FixedLatency(latency);
            for i in 0..loads {
                core.step(Op::Load(i as u64 * 64), &mut mem);
            }
            core.drain();
            core.report().cycles
        };
        prop_assert!(run(8) <= run(1));
        prop_assert!(run(32) <= run(8));
    }

    /// The multi-core driver preserves per-core instruction counts
    /// regardless of interleaving.
    #[test]
    fn driver_preserves_streams(
        lens in prop::collection::vec(1u64..500, 1..6),
        latency in 1u64..1000,
    ) {
        let n = lens.len();
        let streams: Vec<VecStream> = lens
            .iter()
            .map(|&l| VecStream((0..l).map(|i| if i % 3 == 0 { Op::Load(i * 64) } else { Op::Compute(1) }).collect(), 0))
            .collect();
        let mut mc = MultiCore::new(n, CoreConfig::default());
        let report = mc.run(streams, &mut FixedLatency(latency));
        for (i, &l) in lens.iter().enumerate() {
            prop_assert_eq!(report.cores[i].instructions, l);
        }
    }
}
