#![forbid(unsafe_code)]
//! Multi-core processor model with bounded memory-level parallelism.
//!
//! The paper simulates 12 out-of-order ALPHA cores in GEM5. This crate
//! reproduces the performance-relevant behaviour with a *window model*:
//! each core retires one instruction per cycle until a memory access's
//! latency can no longer be hidden — an access may overlap with execution
//! until either the reorder window ([`CoreConfig::rob_window`] younger
//! instructions) or the miss-level parallelism limit
//! ([`CoreConfig::mlp`] outstanding accesses) is exhausted. IPC then
//! emerges from the interplay of access latency, MLP and the instruction
//! mix, which is what Figures 18–20 and 23 measure.
//!
//! The crate is agnostic to what sits behind the cores: callers implement
//! [`MemorySystem`] (translation, caches, heterogeneous memory) and drive
//! a [`MultiCore`] with per-core [`InstructionStream`]s.
//!
//! # Example
//!
//! ```
//! use chameleon_cpu::{CoreConfig, InstructionStream, MemorySystem, MultiCore, Op, Reply};
//!
//! /// A memory that always takes 200 cycles.
//! struct Flat;
//! impl MemorySystem for Flat {
//!     fn access(&mut self, _core: usize, _addr: u64, _write: bool, _now: u64) -> Reply {
//!         Reply { latency: 200, fault_stall: 0 }
//!     }
//! }
//!
//! /// One load every 10 instructions.
//! struct Stream(u64);
//! impl InstructionStream for Stream {
//!     fn next_op(&mut self) -> Option<Op> {
//!         self.0 += 1;
//!         if self.0 > 1000 { return None; }
//!         Some(if self.0 % 10 == 0 { Op::Load(self.0 * 64) } else { Op::Compute(1) })
//!     }
//! }
//!
//! let mut mc = MultiCore::new(2, CoreConfig::default());
//! let report = mc.run(vec![Stream(0), Stream(0)], &mut Flat);
//! assert!(report.cores[0].ipc() > 0.1);
//! ```

mod core_model;
mod driver;

pub use core_model::{Core, CoreConfig, CoreReport};
pub use driver::{MultiCore, RunReport};

/// One element of an instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` non-memory instructions, each retiring in one cycle.
    Compute(u32),
    /// A load from a (virtual) address.
    Load(u64),
    /// A store to a (virtual) address.
    Store(u64),
}

/// A supplier of operations for one core.
pub trait InstructionStream {
    /// The next operation, or `None` when the stream is exhausted.
    fn next_op(&mut self) -> Option<Op>;
}

/// A mutable borrow is itself a stream, so drivers that time-slice
/// long-lived streams (the scenario layer) can lend them to
/// [`MultiCore::run`] one quantum at a time without giving up ownership.
impl<S: InstructionStream + ?Sized> InstructionStream for &mut S {
    fn next_op(&mut self) -> Option<Op> {
        (**self).next_op()
    }
}

/// Reply from the memory system for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Latency in CPU cycles until the data is available (translation,
    /// cache walk, DRAM time). Overlappable up to the core's MLP/window.
    pub latency: u64,
    /// Additional page-fault stall in CPU cycles. Blocks the core fully
    /// (the task sits in the uninterruptible "D" state) and is attributed
    /// to fault time in the core report.
    pub fault_stall: u64,
}

/// Everything behind the core: address translation, caches, memory.
pub trait MemorySystem {
    /// Services one access from `core` at `addr`, issued at cycle `now`.
    fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> Reply;
}
