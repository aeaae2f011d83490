//! The multi-core driver: interleaves cores in local-clock order.

use serde::{Deserialize, Serialize};

use crate::core_model::{Core, CoreConfig, CoreReport};
use crate::{InstructionStream, MemorySystem};

/// Aggregate results of one multi-programmed run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-core reports, indexed by core id.
    pub cores: Vec<CoreReport>,
}

impl RunReport {
    /// Geometric mean of per-core IPC — the paper's headline metric
    /// (Section VI-A).
    pub fn geomean_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.cores.iter().map(|c| c.ipc()).collect();
        chameleon_simkit::stats::geometric_mean(&ipcs)
    }

    /// Mean Running-state fraction across cores (Figure 5's secondary
    /// axis: time not spent waiting for the SSD).
    pub fn mean_running_utilization(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores
            .iter()
            .map(|c| c.running_utilization())
            .sum::<f64>()
            / self.cores.len() as f64
    }

    /// The longest core runtime (makespan of the workload).
    pub fn makespan(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Total instructions retired across cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Total simulated memory references across cores (the sweep
    /// progress line's accesses/sec numerator).
    pub fn total_mem_ops(&self) -> u64 {
        self.cores.iter().map(|c| c.mem_ops).sum()
    }
}

/// Runs several cores against one shared memory system, keeping their
/// local clocks loosely synchronised (the core with the smallest clock
/// always steps next, so shared-resource contention is seen in roughly
/// global time order).
#[derive(Debug)]
pub struct MultiCore {
    cores: Vec<Core>,
    /// Which cores still have ops in the current [`MultiCore::run`]; kept
    /// across runs since the core count is fixed.
    live: Vec<bool>,
}

impl MultiCore {
    /// Creates `n` cores with identical configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, cfg: CoreConfig) -> Self {
        assert!(n > 0, "at least one core required");
        Self {
            cores: (0..n).map(|i| Core::new(i, cfg)).collect(),
            live: vec![true; n],
        }
    }

    /// Runs every stream to exhaustion and returns the per-core reports.
    ///
    /// Generic over the memory system (`?Sized` keeps `&mut dyn
    /// MemorySystem` callers working) so a concrete system monomorphises
    /// the per-op `access` call instead of going through a vtable.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams differs from the number of cores.
    pub fn run<S: InstructionStream, M: MemorySystem + ?Sized>(
        &mut self,
        mut streams: Vec<S>,
        mem: &mut M,
    ) -> RunReport {
        self.run_borrowed(&mut streams, mem);
        self.report()
    }

    /// [`MultiCore::run`] over streams the caller keeps, so a driver that
    /// runs many rounds (the scenario layer) reuses one stream buffer.
    /// It builds no report: the caller reads the cores it needs, and
    /// takes [`MultiCore::report`] once at the end.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams differs from the number of cores.
    pub fn run_borrowed<S: InstructionStream, M: MemorySystem + ?Sized>(
        &mut self,
        streams: &mut [S],
        mem: &mut M,
    ) {
        assert_eq!(
            streams.len(),
            self.cores.len(),
            "one stream per core required"
        );
        let live = &mut self.live;
        live.fill(true);
        let mut live_count = live.len();

        while live_count > 0 {
            // Pick the live core with the smallest local clock.
            let (idx, _) = self
                .cores
                .iter()
                .enumerate()
                .filter(|(i, _)| live[*i])
                .min_by_key(|(_, c)| c.clock())
                // INVARIANT: the loop guard keeps at least one core live here.
                .expect("live_count > 0");
            // Step a small quantum to amortise the selection cost.
            for _ in 0..32 {
                match streams[idx].next_op() {
                    Some(op) => {
                        self.cores[idx].step(op, mem);
                    }
                    None => {
                        self.cores[idx].drain();
                        live[idx] = false;
                        live_count -= 1;
                        break;
                    }
                }
            }
        }
    }

    /// The per-core reports so far (final after a run).
    pub fn report(&self) -> RunReport {
        RunReport {
            cores: self.cores.iter().map(|c| *c.report()).collect(),
        }
    }

    /// Access to a core (e.g. to impose fault stalls from the memory
    /// system between ops).
    pub fn core_mut(&mut self, idx: usize) -> &mut Core {
        &mut self.cores[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reply};

    struct FixedLatency(u64);
    impl MemorySystem for FixedLatency {
        fn access(&mut self, _core: usize, _addr: u64, _write: bool, _now: u64) -> Reply {
            Reply {
                latency: self.0,
                fault_stall: 0,
            }
        }
    }

    struct ComputeStream {
        remaining: u64,
    }
    impl InstructionStream for ComputeStream {
        fn next_op(&mut self) -> Option<Op> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(Op::Compute(1))
        }
    }

    #[test]
    fn all_cores_complete() {
        let mut mc = MultiCore::new(4, CoreConfig::default());
        let streams: Vec<_> = (0..4).map(|_| ComputeStream { remaining: 1000 }).collect();
        let report = mc.run(streams, &mut FixedLatency(100));
        assert_eq!(report.cores.len(), 4);
        for c in &report.cores {
            assert_eq!(c.instructions, 1000);
            assert_eq!(c.cycles, 1000);
        }
        assert!((report.geomean_ipc() - 1.0).abs() < 1e-9);
        assert_eq!(report.makespan(), 1000);
        assert_eq!(report.total_instructions(), 4000);
    }

    #[test]
    fn unbalanced_streams_finish_independently() {
        let mut mc = MultiCore::new(2, CoreConfig::default());
        let streams = vec![
            ComputeStream { remaining: 100 },
            ComputeStream { remaining: 10_000 },
        ];
        let report = mc.run(streams, &mut FixedLatency(1));
        assert_eq!(report.cores[0].instructions, 100);
        assert_eq!(report.cores[1].instructions, 10_000);
        assert_eq!(report.makespan(), 10_000);
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn stream_count_mismatch_panics() {
        let mut mc = MultiCore::new(2, CoreConfig::default());
        let _ = mc.run(vec![ComputeStream { remaining: 1 }], &mut FixedLatency(1));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        MultiCore::new(0, CoreConfig::default());
    }
}
