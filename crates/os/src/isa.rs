//! The `ISA-Alloc` / `ISA-Free` notification channel.
//!
//! The paper adds two instructions with which the OS tells the memory
//! controller which physical segments hold live data (Section IV,
//! Algorithms 1 and 2). In the simulator the kernel invokes an [`IsaHook`]
//! on every physical allocation and reclamation; the hardware models in
//! `chameleon-core` implement the trait and perform their segment-group
//! transitions.
//!
//! The hook receives the *byte range*; implementers iterate the segments
//! it covers (the per-segment loop of Algorithms 1–2). This is equivalent
//! to, and cheaper than, one call per segment — the number of logical
//! per-segment invocations is still recorded for the Section VI-F overhead
//! accounting.

/// Receiver of OS allocation/reclamation notifications.
pub trait IsaHook {
    /// The OS allocated physical bytes `[addr, addr + len)` at CPU cycle
    /// `now`.
    fn isa_alloc(&mut self, addr: u64, len: u64, now: u64);

    /// The OS freed physical bytes `[addr, addr + len)` at CPU cycle
    /// `now`.
    fn isa_free(&mut self, addr: u64, len: u64, now: u64);
}

/// A hook that ignores all notifications (OS-managed baselines where no
/// reconfigurable hardware is present).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl IsaHook for NullHook {
    fn isa_alloc(&mut self, _addr: u64, _len: u64, _now: u64) {}
    fn isa_free(&mut self, _addr: u64, _len: u64, _now: u64) {}
}

/// A hook that records every notification; used by tests.
#[derive(Debug, Clone, Default)]
pub struct RecordingHook {
    /// `(addr, len)` of each allocation, in order.
    pub allocs: Vec<(u64, u64)>,
    /// `(addr, len)` of each free, in order.
    pub frees: Vec<(u64, u64)>,
}

impl IsaHook for RecordingHook {
    fn isa_alloc(&mut self, addr: u64, len: u64, _now: u64) {
        self.allocs.push((addr, len));
    }

    fn isa_free(&mut self, addr: u64, len: u64, _now: u64) {
        self.frees.push((addr, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_hook_is_inert() {
        let mut h = NullHook;
        h.isa_alloc(0, 4096, 0);
        h.isa_free(0, 4096, 0);
    }

    #[test]
    fn recording_hook_remembers() {
        let mut h = RecordingHook::default();
        h.isa_alloc(0x1000, 4096, 0);
        h.isa_free(0x1000, 4096, 0);
        assert_eq!(h.allocs, vec![(0x1000, 4096)]);
        assert_eq!(h.frees, vec![(0x1000, 4096)]);
    }
}
