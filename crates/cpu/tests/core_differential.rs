//! Differential proptest for the core's lazy retirement: `Core` against
//! an eager reference that pops completed accesses on every op.
//!
//! `EagerCore` is the retirement and MLP logic `Core` used before
//! retirement went lazy, kept verbatim over a `VecDeque`. Both run the
//! same scripted stream (compute, loads, stores, page-fault replies,
//! `fault_stall` and `advance_to`) and must agree on the `CoreReport` and
//! the clock after every step and after `drain`.

use std::collections::VecDeque;

use chameleon_cpu::{Core, CoreConfig, CoreReport, MemorySystem, Op, Reply};
use chameleon_simkit::Cycle;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    complete_at: Cycle,
    issued_at_instr: u64,
}

/// The eager core: every op first pops whatever has completed.
struct EagerCore {
    id: usize,
    cfg: CoreConfig,
    clock: Cycle,
    outstanding: VecDeque<Outstanding>,
    report: CoreReport,
}

impl EagerCore {
    fn new(id: usize, cfg: CoreConfig) -> Self {
        Self {
            id,
            cfg,
            clock: 0,
            outstanding: VecDeque::new(),
            report: CoreReport::default(),
        }
    }

    fn step<M: MemorySystem>(&mut self, op: Op, mem: &mut M) -> Cycle {
        let (addr, write) = match op {
            Op::Compute(n) => {
                self.retire_window(n as u64);
                self.clock += n as Cycle;
                self.report.instructions += n as u64;
                return self.clock;
            }
            Op::Load(addr) => (addr, false),
            Op::Store(addr) => (addr, true),
        };
        self.retire_window(1);
        // Respect the MLP bound.
        if self.outstanding.len() == self.cfg.mlp {
            let oldest = self.outstanding.pop_front().expect("len checked");
            self.stall_until(oldest.complete_at);
        }
        self.clock += 1; // issue slot
        self.report.instructions += 1;
        self.report.mem_ops += 1;
        let reply = mem.access(self.id, addr, write, self.clock);
        if reply.fault_stall > 0 {
            while let Some(o) = self.outstanding.pop_front() {
                self.stall_until(o.complete_at);
            }
            self.fault_stall(reply.fault_stall);
        }
        self.outstanding.push_back(Outstanding {
            complete_at: self.clock + reply.latency,
            issued_at_instr: self.report.instructions,
        });
        self.clock
    }

    fn fault_stall(&mut self, cycles: Cycle) {
        self.clock += cycles;
        self.report.fault_stall_cycles += cycles;
    }

    fn advance_to(&mut self, when: Cycle) {
        if when > self.clock {
            self.clock = when;
            self.report.cycles = self.clock;
        }
    }

    fn drain(&mut self) {
        while let Some(o) = self.outstanding.pop_front() {
            self.stall_until(o.complete_at);
        }
        self.report.cycles = self.clock;
    }

    fn retire_window(&mut self, n: u64) {
        let future_instr = self.report.instructions + n;
        while let Some(&front) = self.outstanding.front() {
            if future_instr.saturating_sub(front.issued_at_instr) >= self.cfg.rob_window {
                self.outstanding.pop_front();
                self.stall_until(front.complete_at);
            } else if front.complete_at <= self.clock {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
        // Snapshot cycles continuously so mid-run reports are usable.
        self.report.cycles = self.clock;
    }

    fn stall_until(&mut self, when: Cycle) {
        if when > self.clock {
            self.report.mem_stall_cycles += when - self.clock;
            self.clock = when;
        }
    }
}

/// Answers each access with the next scripted reply.
struct Scripted(VecDeque<Reply>);

impl MemorySystem for Scripted {
    fn access(&mut self, _core: usize, _addr: u64, _write: bool, _now: u64) -> Reply {
        self.0.pop_front().expect("one reply per memory op")
    }
}

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `Core::step`; a memory op is answered with `reply`.
    Op(Op, Reply),
    /// `Core::fault_stall` of this many cycles.
    FaultStall(Cycle),
    /// `Core::advance_to` this far from the clock (may lie in the past).
    AdvanceBy(i64),
}

/// Latencies on both sides of a `rob_window` of at most 48, mostly
/// short, with rare page-fault stalls.
fn any_reply() -> impl Strategy<Value = Reply> {
    let latency =
        (0u32..8, 0u64..16, 0u64..200, 200u64..2000).prop_map(|(pick, short, medium, long)| {
            match pick {
                0..=3 => short,
                4..=6 => medium,
                _ => long,
            }
        });
    let fault_stall = (0u32..30, 1u64..500).prop_map(|(pick, c)| if pick == 0 { c } else { 0 });
    (latency, fault_stall).prop_map(|(latency, fault_stall)| Reply {
        latency,
        fault_stall,
    })
}

/// Mostly compute and memory ops, with the odd `fault_stall` and
/// `advance_to`.
fn any_step() -> impl Strategy<Value = Step> {
    (
        0u32..18,
        1u32..40,
        0u64..4096,
        any_reply(),
        1u64..300,
        -100i64..300,
    )
        .prop_map(|(pick, n, addr, reply, stall, delta)| match pick {
            0..=5 => Step::Op(Op::Compute(n), reply),
            6..=11 => Step::Op(Op::Load(addr), reply),
            12..=15 => Step::Op(Op::Store(addr), reply),
            16 => Step::FaultStall(stall),
            _ => Step::AdvanceBy(delta),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The lazy core reports what the eager one does after every step,
    /// for small MLP and reorder windows.
    #[test]
    fn lazy_retirement_matches_eager_reference(
        steps in prop::collection::vec(any_step(), 1..400),
        mlp in 1usize..6,
        rob_window in 1u64..48,
    ) {
        let cfg = CoreConfig { mlp, rob_window };
        let mut lazy = Core::new(0, cfg);
        let mut eager = EagerCore::new(0, cfg);
        let replies: VecDeque<Reply> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Op(Op::Load(_) | Op::Store(_), r) => Some(*r),
                _ => None,
            })
            .collect();
        let mut lazy_mem = Scripted(replies.clone());
        let mut eager_mem = Scripted(replies);
        for (i, &step) in steps.iter().enumerate() {
            match step {
                Step::Op(op, _) => {
                    let (a, b) = (lazy.step(op, &mut lazy_mem), eager.step(op, &mut eager_mem));
                    prop_assert_eq!(a, b, "step {}: {:?} returned different clocks", i, step);
                }
                Step::FaultStall(cycles) => {
                    lazy.fault_stall(cycles);
                    eager.fault_stall(cycles);
                }
                Step::AdvanceBy(delta) => {
                    let when = eager.clock.saturating_add_signed(delta);
                    lazy.advance_to(when);
                    eager.advance_to(when);
                }
            }
            prop_assert_eq!(lazy.clock(), eager.clock, "step {}: {:?}", i, step);
            prop_assert_eq!(lazy.report(), &eager.report, "step {}: {:?}", i, step);
        }
        lazy.drain();
        eager.drain();
        prop_assert_eq!(lazy.clock(), eager.clock, "after drain");
        prop_assert_eq!(lazy.report(), &eager.report, "after drain");
    }
}
