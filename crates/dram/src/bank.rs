//! Per-bank row-buffer state machine.

use chameleon_simkit::{ClockDomain, Cycle};

use crate::DramConfig;

/// Classification of an access against the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOutcome {
    /// The addressed row is already open.
    Hit,
    /// The bank is precharged; a row must be activated.
    Closed,
    /// A different row is open; precharge then activate.
    Conflict,
}

/// One DRAM bank: which row is open and when the bank can next accept a
/// column command. All times are in CPU cycles (the model converts device
/// timings once at construction).
#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle at which a new command may be issued to this bank.
    ready_at: Cycle,
    /// Cycle of the last ACTIVATE, to enforce tRAS before precharge.
    activated_at: Cycle,
}

/// Device timing parameters pre-converted to CPU cycles.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimings {
    /// Column access strobe latency.
    pub t_cas: Cycle,
    /// RAS-to-CAS delay.
    pub t_rcd: Cycle,
    /// Row precharge time.
    pub t_rp: Cycle,
    /// Minimum row-open time.
    pub t_ras: Cycle,
    /// Refresh cycle time.
    pub t_rfc: Cycle,
    /// Refresh interval.
    pub t_refi: Cycle,
}

impl CpuTimings {
    /// Converts `dev`'s timings into the `cpu` clock domain, together
    /// with the CPU cycles one 64B line occupies a channel's bus.
    pub(crate) fn from_device(dev: &DramConfig, cpu: ClockDomain) -> (Self, Cycle) {
        let bus = dev.bus_clock;
        let t = &dev.timings;
        let timings = Self {
            t_cas: bus.convert_cycles(t.t_cas as Cycle, &cpu),
            t_rcd: bus.convert_cycles(t.t_rcd as Cycle, &cpu),
            t_rp: bus.convert_cycles(t.t_rp as Cycle, &cpu),
            t_ras: bus.convert_cycles(t.t_ras as Cycle, &cpu),
            t_rfc: cpu.ns_to_cycles(t.t_rfc_ns),
            t_refi: cpu.ns_to_cycles(t.t_refi_ns),
        };
        let line_bus_cycles = 64u64.div_ceil(dev.bytes_per_bus_cycle());
        (timings, bus.convert_cycles(line_bus_cycles, &cpu).max(1))
    }
}

impl Bank {
    /// Whether an access to `row` would hit the open row (no mutation).
    pub fn classify_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// Classifies an access without mutating state.
    pub fn classify(&self, row: u64) -> RowOutcome {
        match self.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        }
    }

    /// Issues an access to `row` arriving at `now`; returns
    /// `(outcome, cycle at which the column data is available at the bank)`.
    ///
    /// The caller is responsible for data-bus serialisation; this method
    /// only accounts for bank-internal timing.
    pub fn access(&mut self, row: u64, now: Cycle, t: &CpuTimings) -> (RowOutcome, Cycle) {
        let outcome = self.classify(row);
        let start = now.max(self.ready_at);
        let data_at = match outcome {
            RowOutcome::Hit => start + t.t_cas,
            RowOutcome::Closed => {
                self.open_row = Some(row);
                self.activated_at = start;
                start + t.t_rcd + t.t_cas
            }
            RowOutcome::Conflict => {
                // Precharge may not begin before tRAS has elapsed since the
                // previous activate.
                let pre_start = start.max(self.activated_at + t.t_ras);
                let act = pre_start + t.t_rp;
                self.open_row = Some(row);
                self.activated_at = act;
                act + t.t_rcd + t.t_cas
            }
        };
        self.ready_at = data_at;
        (outcome, data_at)
    }

    /// Applies a refresh: the bank is blocked until `until` and its row
    /// buffer is closed.
    pub fn refresh_until(&mut self, until: Cycle) {
        self.ready_at = self.ready_at.max(until);
        self.open_row = None;
    }

    /// Earliest cycle the bank can accept a new command (for tests).
    #[cfg(test)]
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> CpuTimings {
        CpuTimings {
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rfc: 138,
            t_refi: 7800,
        }
    }

    #[test]
    fn closed_then_hit_then_conflict() {
        let mut b = Bank::default();
        let (o1, d1) = b.access(5, 0, &t());
        assert_eq!(o1, RowOutcome::Closed);
        assert_eq!(d1, 22); // tRCD + tCAS

        let (o2, d2) = b.access(5, d1, &t());
        assert_eq!(o2, RowOutcome::Hit);
        assert_eq!(d2, d1 + 11);

        let (o3, d3) = b.access(9, d2, &t());
        assert_eq!(o3, RowOutcome::Conflict);
        assert!(d3 > d2 + 11, "conflict must cost more than a hit");
    }

    #[test]
    fn conflict_waits_for_t_ras() {
        let mut b = Bank::default();
        // Activate at cycle 0 (closed access).
        b.access(1, 0, &t());
        // Immediately conflict: precharge cannot start before tRAS=28.
        let (_, d) = b.access(2, 22, &t());
        // pre_start = max(22, 0+28)=28; +tRP=39; +tRCD+tCAS=61.
        assert_eq!(d, 61);
    }

    #[test]
    fn refresh_closes_row_and_blocks() {
        let mut b = Bank::default();
        b.access(3, 0, &t());
        b.refresh_until(1000);
        assert_eq!(b.classify(3), RowOutcome::Closed);
        let (_, d) = b.access(3, 0, &t());
        assert!(d >= 1000 + 22);
        assert!(b.ready_at() == d);
    }

    #[test]
    fn back_to_back_hits_serialise_on_bank() {
        let mut b = Bank::default();
        let (_, d1) = b.access(1, 0, &t());
        // Second request arrives earlier than the bank is ready.
        let (_, d2) = b.access(1, 0, &t());
        assert_eq!(d2, d1 + 11);
    }
}
