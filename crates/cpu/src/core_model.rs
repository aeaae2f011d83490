//! The single-core window model.

use chameleon_simkit::Cycle;
use serde::{Deserialize, Serialize};

use crate::{MemorySystem, Op, Reply};

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Maximum outstanding memory accesses (MSHR / miss-level parallelism).
    pub mlp: usize,
    /// Instructions the core may run ahead of the oldest outstanding
    /// access (reorder-buffer proxy).
    pub rob_window: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        // An aggressive out-of-order core: the effective miss-level
        // parallelism includes the stride prefetchers the paper's GEM5
        // cores run with, so sustained outstanding misses go well beyond
        // the MSHR count of a basic in-order pipeline. This is what makes
        // the 12-core system bandwidth-bound, the regime the paper's
        // "fast = higher bandwidth" premise lives in.
        Self {
            mlp: 32,
            rob_window: 512,
        }
    }
}

/// Per-core results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed on this core.
    pub cycles: Cycle,
    /// Cycles the core was stalled waiting on memory.
    pub mem_stall_cycles: Cycle,
    /// Cycles the core was stalled in page faults (subset of total time,
    /// disjoint from `mem_stall_cycles`).
    pub fault_stall_cycles: Cycle,
    /// Memory operations issued.
    pub mem_ops: u64,
}

impl CoreReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of time the task was in the Running ("R") state rather
    /// than the uninterruptible swap-wait ("D") state — the paper's
    /// Figure 5 "CPU utilisation". Memory stalls count as running, just
    /// as `top` counts them.
    pub fn running_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        1.0 - self.fault_stall_cycles as f64 / self.cycles as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    complete_at: Cycle,
    issued_at_instr: u64,
}

/// Fixed-capacity FIFO of in-flight accesses. Occupancy never exceeds
/// the MLP bound (`step` retires the oldest entry first), so a
/// preallocated ring replaces `VecDeque`'s growth machinery on the
/// per-op path.
#[derive(Debug)]
struct InFlight {
    buf: Box<[Outstanding]>,
    head: usize,
    len: usize,
}

impl InFlight {
    fn new(cap: usize) -> Self {
        let zero = Outstanding {
            complete_at: 0,
            issued_at_instr: 0,
        };
        Self {
            buf: vec![zero; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn front(&self) -> Option<Outstanding> {
        (self.len > 0).then(|| self.buf[self.head])
    }

    fn pop_front(&mut self) -> Option<Outstanding> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(v)
    }

    fn push_back(&mut self, v: Outstanding) {
        debug_assert!(self.len < self.buf.len(), "ring sized to the MLP bound");
        let mut i = self.head + self.len;
        if i >= self.buf.len() {
            i -= self.buf.len();
        }
        self.buf[i] = v;
        self.len += 1;
    }
}

/// One core executing an instruction stream against a memory system.
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    clock: Cycle,
    outstanding: InFlight,
    report: CoreReport,
}

impl Core {
    /// Creates a core with the given id (its index into the shared cache
    /// hierarchy).
    pub fn new(id: usize, cfg: CoreConfig) -> Self {
        assert!(cfg.mlp > 0, "mlp must be at least 1");
        assert!(cfg.rob_window > 0, "rob window must be at least 1");
        Self {
            id,
            cfg,
            clock: 0,
            outstanding: InFlight::new(cfg.mlp),
            report: CoreReport::default(),
        }
    }

    /// The core's current local clock.
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// The report so far (final after [`Core::drain`]).
    pub fn report(&self) -> &CoreReport {
        &self.report
    }

    /// Executes one operation. Returns the new local clock.
    // lint: hot-path
    pub fn step<M: MemorySystem + ?Sized>(&mut self, op: Op, mem: &mut M) -> Cycle {
        match op {
            Op::Compute(n) => self.step_compute(n),
            Op::Load(addr) | Op::Store(addr) => {
                let write = matches!(op, Op::Store(_));
                self.step_mem_with(|id, now| mem.access(id, addr, write, now))
            }
        }
    }

    /// Executes one compute op of `n` instructions. Returns the new
    /// local clock.
    // lint: hot-path
    #[inline]
    fn step_compute(&mut self, n: u32) -> Cycle {
        self.retire_window(n as u64);
        self.clock += n as Cycle;
        self.report.instructions += n as u64;
        self.clock
    }

    /// Executes one memory op; `access` receives the core id and the
    /// issue cycle and returns the memory system's reply. This is the
    /// timing model [`Core::step`] uses for loads and stores. Returns the
    /// new local clock.
    // lint: hot-path
    #[inline]
    fn step_mem_with(&mut self, access: impl FnOnce(usize, u64) -> Reply) -> Cycle {
        self.retire_window(1);
        // Respect the MLP bound.
        if self.outstanding.len() == self.cfg.mlp {
            // INVARIANT: len == mlp >= 1, checked on the previous line.
            let oldest = self.outstanding.pop_front().expect("len checked");
            self.stall_until(oldest.complete_at);
        }
        self.clock += 1; // issue slot
        self.report.instructions += 1;
        self.report.mem_ops += 1;
        let reply = access(self.id, self.clock);
        if reply.fault_stall > 0 {
            // A page fault blocks the whole core: wait out any
            // outstanding accesses, then serve the fault.
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

    /// Adds an externally imposed stall (e.g. a page fault serviced by
    /// the OS) of `cycles`, attributed to fault time.
    pub fn fault_stall(&mut self, cycles: Cycle) {
        self.clock += cycles;
        self.report.fault_stall_cycles += cycles;
    }

    /// Advances the local clock to `when` without attributing the gap to
    /// memory or fault stalls: the core sat idle between jobs. Scenario
    /// drivers use this to keep time-sliced cores on a common timeline;
    /// a `when` in the past is a no-op.
    pub fn advance_to(&mut self, when: Cycle) {
        if when > self.clock {
            self.clock = when;
            self.report.cycles = self.clock;
        }
    }

    /// Waits for all outstanding accesses; call once the stream ends.
    pub fn drain(&mut self) {
        while let Some(o) = self.outstanding.pop_front() {
            self.stall_until(o.complete_at);
        }
        self.report.cycles = self.clock;
    }

    /// Enforces the reorder window before retiring `n` more instructions:
    /// the oldest outstanding access must complete before the core moves
    /// more than `rob_window` instructions past its issue point.
    fn retire_window(&mut self, n: u64) {
        let future_instr = self.report.instructions + n;
        while let Some(front) = self.outstanding.front() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reply;

    /// Fraction of time the core was not stalled on memory or faults.
    fn utilization(r: &CoreReport) -> f64 {
        1.0 - (r.mem_stall_cycles + r.fault_stall_cycles) as f64 / r.cycles as f64
    }

    struct FixedLatency(u64);
    impl MemorySystem for FixedLatency {
        fn access(&mut self, _core: usize, _addr: u64, _write: bool, _now: u64) -> Reply {
            Reply {
                latency: self.0,
                fault_stall: 0,
            }
        }
    }

    #[test]
    fn pure_compute_is_ipc_one() {
        let mut c = Core::new(0, CoreConfig::default());
        let mut mem = FixedLatency(100);
        for _ in 0..100 {
            c.step(Op::Compute(10), &mut mem);
        }
        c.drain();
        assert_eq!(c.report().instructions, 1000);
        assert_eq!(c.report().cycles, 1000);
        assert!((c.report().ipc() - 1.0).abs() < 1e-12);
        assert_eq!(utilization(c.report()), 1.0);
    }

    #[test]
    fn short_latency_fully_hidden_by_window() {
        let mut c = Core::new(0, CoreConfig::default());
        let mut mem = FixedLatency(4); // L1-like
        for _ in 0..100 {
            c.step(Op::Load(0), &mut mem);
            c.step(Op::Compute(9), &mut mem);
        }
        c.drain();
        // 1000 instructions; the 4-cycle loads complete inside the window,
        // so the total is 1000 plus at most one trailing drain.
        assert!(
            (1000..=1004).contains(&c.report().cycles),
            "cycles {}",
            c.report().cycles
        );
        assert!(utilization(c.report()) > 0.99);
    }

    #[test]
    fn long_latency_with_low_mlp_stalls() {
        let cfg = CoreConfig {
            mlp: 1,
            rob_window: 192,
        };
        let mut c = Core::new(0, cfg);
        let mut mem = FixedLatency(300);
        for _ in 0..10 {
            c.step(Op::Load(0), &mut mem);
        }
        c.drain();
        // Every load serialises: >= 10 * 300 cycles.
        assert!(c.report().cycles >= 3000, "cycles {}", c.report().cycles);
        assert!(c.report().ipc() < 0.01);
        assert!(utilization(c.report()) < 0.05);
    }

    #[test]
    fn mlp_overlaps_misses() {
        let serial = {
            let mut c = Core::new(
                0,
                CoreConfig {
                    mlp: 1,
                    rob_window: 1000,
                },
            );
            let mut mem = FixedLatency(300);
            for _ in 0..64 {
                c.step(Op::Load(0), &mut mem);
            }
            c.drain();
            c.report().cycles
        };
        let parallel = {
            let mut c = Core::new(
                0,
                CoreConfig {
                    mlp: 8,
                    rob_window: 1000,
                },
            );
            let mut mem = FixedLatency(300);
            for _ in 0..64 {
                c.step(Op::Load(0), &mut mem);
            }
            c.drain();
            c.report().cycles
        };
        assert!(
            (parallel as f64) < serial as f64 / 4.0,
            "mlp=8 ({parallel}) should be much faster than mlp=1 ({serial})"
        );
    }

    #[test]
    fn rob_window_limits_runahead() {
        // One long miss followed by lots of compute: the core can only
        // run rob_window instructions ahead before stalling.
        let cfg = CoreConfig {
            mlp: 8,
            rob_window: 64,
        };
        let mut c = Core::new(0, cfg);
        let mut mem = FixedLatency(10_000);
        c.step(Op::Load(0), &mut mem);
        for _ in 0..100 {
            c.step(Op::Compute(1), &mut mem);
        }
        // The stall must have occurred at ~64 instructions past the load.
        assert!(
            c.clock() >= 10_000,
            "clock {} should include the miss",
            c.clock()
        );
        c.drain();
        assert!(c.report().mem_stall_cycles > 9000);
    }

    #[test]
    fn fault_stall_attributed_separately() {
        let mut c = Core::new(0, CoreConfig::default());
        c.fault_stall(100_000);
        let mut mem = FixedLatency(1);
        c.step(Op::Compute(1), &mut mem);
        c.drain();
        assert_eq!(c.report().fault_stall_cycles, 100_000);
        assert!(utilization(c.report()) < 0.001);
        assert!(c.report().running_utilization() < 0.001);
    }

    #[test]
    fn running_utilization_ignores_memory_stalls() {
        let mut c = Core::new(
            0,
            CoreConfig {
                mlp: 1,
                rob_window: 8,
            },
        );
        let mut mem = FixedLatency(1000);
        for _ in 0..10 {
            c.step(Op::Load(0), &mut mem);
        }
        c.drain();
        assert!(utilization(c.report()) < 0.1, "pipeline mostly stalled");
        assert_eq!(
            c.report().running_utilization(),
            1.0,
            "but the task never left the Running state"
        );
    }

    #[test]
    #[should_panic(expected = "mlp")]
    fn zero_mlp_rejected() {
        Core::new(
            0,
            CoreConfig {
                mlp: 0,
                rob_window: 1,
            },
        );
    }
}
