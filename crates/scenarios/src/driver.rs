//! The scenario driver: time-slices many jobs over the simulated cores.
//!
//! One persistent [`MultiCore`] and one persistent [`System`] carry the
//! whole scenario; each scheduling round binds up to `cores` runnable
//! jobs (latency-sensitive first, then FIFO), lends their long-lived
//! instruction streams to the cores for one quantum, and charges every
//! job the cycles its core advanced. Arrival and exit churn flow through
//! the OS (`spawn`/`exit` with `ISA-Alloc`/`ISA-Free` notifications), so
//! the memory system sees consolidation pressure, not a steady state.

use std::collections::BTreeMap;

use chameleon::{Architecture, ScaledParams, System, SystemReport};
use chameleon_cpu::{InstructionStream, MultiCore, Op, RunReport};
use chameleon_os::Pid;
use chameleon_simkit::Cycle;
use chameleon_workloads::{AppSpec, AppStream, LoopConfig, LoopStream, ZipfConfig, ZipfStream};
use serde::{Deserialize, Serialize};

use crate::job::{generate_jobs, JobCell};
use crate::spec::{ScenarioSpec, TenantClass, WorkloadKind};

/// Write fraction for Zipf tenants (YCSB-style read-mostly point ops).
const ZIPF_WRITE_FRACTION: f64 = 0.3;
/// Write fraction for scan tenants (read-dominated sweeps).
const SCAN_WRITE_FRACTION: f64 = 0.1;

/// A job's long-lived instruction stream.
enum JobStream {
    App(Box<AppStream>),
    Zipf(ZipfStream),
    Scan(LoopStream),
}

impl InstructionStream for JobStream {
    // lint: hot-path
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        match self {
            JobStream::App(s) => s.next_op(),
            JobStream::Zipf(s) => s.next_op(),
            JobStream::Scan(s) => s.next_op(),
        }
    }
}

/// An admitted, not-yet-finished job.
struct ActiveJob {
    pid: Pid,
    stream: JobStream,
    done: bool,
}

/// Holds a job on a core for one quantum: ends the slice after `left`
/// instructions, and flags the job done when the underlying stream (the
/// job's whole budget) runs dry.
struct SliceStream {
    job: ActiveJob,
    left: u64,
}

impl InstructionStream for SliceStream {
    // lint: hot-path
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        if self.left == 0 || self.job.done {
            return None;
        }
        match self.job.stream.next_op() {
            Some(op) => {
                let cost = match op {
                    Op::Compute(n) => (n as u64).max(1),
                    Op::Load(_) | Op::Store(_) => 1,
                };
                self.left = self.left.saturating_sub(cost);
                Some(op)
            }
            None => {
                self.job.done = true;
                None
            }
        }
    }
}

/// Per-core stream for one scheduling round; unassigned cores idle.
enum CoreSlot {
    Idle,
    Busy(SliceStream),
}

impl InstructionStream for CoreSlot {
    // lint: hot-path
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        match self {
            CoreSlot::Idle => None,
            CoreSlot::Busy(s) => s.next_op(),
        }
    }
}

/// Final per-job record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Global job id.
    pub id: usize,
    /// Owning tenant.
    pub tenant: String,
    /// Priority class.
    pub class: TenantClass,
    /// Arrival time (cycles).
    pub arrival: Cycle,
    /// First cycle the job held a core.
    pub first_scheduled: Cycle,
    /// Completion time (cycles).
    pub finish: Cycle,
    /// Cycles of core occupancy charged to the job.
    pub busy_cycles: Cycle,
    /// Scheduling quanta the job consumed.
    pub slices: u64,
    /// `(finish - arrival) / busy_cycles`: 1.0 means the job never
    /// waited; queueing and preemption push it up.
    pub slowdown: f64,
}

/// Slowdown distribution of one priority class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Jobs of this class that completed.
    pub completed: u64,
    /// Median slowdown.
    pub p50_slowdown: f64,
    /// 99th-percentile slowdown (the datacenter tail metric).
    pub p99_slowdown: f64,
    /// Mean slowdown.
    pub mean_slowdown: f64,
}

impl ClassStats {
    fn from_slowdowns(mut xs: Vec<f64>) -> Self {
        if xs.is_empty() {
            return Self {
                completed: 0,
                p50_slowdown: 0.0,
                p99_slowdown: 0.0,
                mean_slowdown: 0.0,
            };
        }
        xs.sort_by(f64::total_cmp);
        let q = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
        Self {
            completed: xs.len() as u64,
            p50_slowdown: q(0.50),
            p99_slowdown: q(0.99),
            mean_slowdown: xs.iter().sum::<f64>() / xs.len() as f64,
        }
    }
}

/// Everything one scenario run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Architecture label (paper legend spelling).
    pub arch: String,
    /// Scenario seed.
    pub seed: u64,
    /// Per-job timeline, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Latency-class slowdown distribution.
    pub latency: ClassStats,
    /// Batch-class slowdown distribution.
    pub batch: ClassStats,
    /// Cycles the stacked node spent above 90% residency.
    pub pressure_cycles: Cycle,
    /// The standard system report (metrics registry included), finalised
    /// from the cumulative core reports.
    pub system: SystemReport,
}

#[derive(Default)]
struct JobState {
    first_scheduled: Option<Cycle>,
    finish: Option<Cycle>,
    busy: Cycle,
    slices: u64,
}

#[derive(Default)]
struct TenantAgg {
    completed: u64,
    samples: u64,
    promoted: u64,
}

fn admit(sys: &mut System, cell: &JobCell, params: &ScaledParams) -> (Pid, JobStream) {
    match &cell.workload {
        WorkloadKind::App { name } => {
            // INVARIANT: the presets carry only Table II names; any other
            // name is a caller error, listed under `run_scenario`'s panics.
            let spec = AppSpec::parse(name)
                .expect("scenario applications are Table II names")
                .scaled(params.footprint_scale);
            let pid = sys.spawn_process(spec.per_copy_footprint());
            let stream = AppStream::new(&spec, cell.instructions, cell.seed);
            (pid, JobStream::App(Box::new(stream)))
        }
        WorkloadKind::Zipf { skew } => {
            let cfg = ZipfConfig {
                footprint: cell.footprint,
                skew: *skew,
                mem_per_kilo: cell.mem_per_kilo,
                write_fraction: ZIPF_WRITE_FRACTION,
            };
            let pid = sys.spawn_process(cell.footprint);
            (
                pid,
                JobStream::Zipf(ZipfStream::new(&cfg, cell.instructions, cell.seed)),
            )
        }
        WorkloadKind::Scan { stride_lines } => {
            let cfg = LoopConfig {
                footprint: cell.footprint,
                stride_lines: *stride_lines,
                mem_per_kilo: cell.mem_per_kilo,
                write_fraction: SCAN_WRITE_FRACTION,
            };
            let pid = sys.spawn_process(cell.footprint);
            (
                pid,
                JobStream::Scan(LoopStream::new(&cfg, cell.instructions, cell.seed)),
            )
        }
    }
}

/// Runs one scenario on one architecture and reports per-job timelines,
/// per-class slowdowns and the standard system report. Deterministic: a
/// pure function of `(arch, params, spec, seed)`.
///
/// # Panics
///
/// Panics if a tenant of `spec` names an application that is not in
/// Table II, gives a Zipf or scan tenant a footprint below one page, or
/// gives a Zipf tenant a negative or NaN skew. The
/// [`ScenarioSpec::by_name`] presets satisfy all three.
pub fn run_scenario(
    arch: Architecture,
    params: &ScaledParams,
    spec: &ScenarioSpec,
    seed: u64,
) -> ScenarioReport {
    let cells = generate_jobs(spec, seed);
    let n_cores = params.cores;
    let mut sys = System::new(arch, params);
    sys.set_workload_name(&format!("scenario:{}", spec.name));
    sys.set_epoch_accesses(spec.epoch_accesses.max(1));
    let mut cores = MultiCore::new(n_cores, params.core);

    let mut active: Vec<Option<ActiveJob>> = (0..cells.len()).map(|_| None).collect();
    let mut state: Vec<JobState> = (0..cells.len()).map(|_| JobState::default()).collect();
    let mut pid_of: Vec<Option<Pid>> = vec![None; cells.len()];
    let mut ready: Vec<usize> = Vec::new();
    let mut next_arrival = 0usize;
    let mut completed = 0usize;
    let mut now: Cycle = 0;
    let mut pressure_cycles: Cycle = 0;
    // Per-round buffers, reused across rounds.
    let mut scheduled: Vec<usize> = Vec::with_capacity(n_cores);
    let mut slots: Vec<CoreSlot> = (0..n_cores).map(|_| CoreSlot::Idle).collect();

    while completed < cells.len() {
        if ready.is_empty() {
            // Nothing runnable: the remaining jobs are all future
            // arrivals (every admitted job stays in `ready` until it
            // completes), so jump the scenario clock forward.
            // INVARIANT: completed < cells.len() and ready is empty
            // imply at least one unadmitted cell remains.
            let cell = cells.get(next_arrival).expect("pending arrivals remain");
            now = now.max(cell.arrival);
        }
        while next_arrival < cells.len() && cells[next_arrival].arrival <= now {
            let cell = &cells[next_arrival];
            let (pid, stream) = admit(&mut sys, cell, params);
            pid_of[cell.id] = Some(pid);
            active[cell.id] = Some(ActiveJob {
                pid,
                stream,
                done: false,
            });
            ready.push(cell.id);
            next_arrival += 1;
        }

        // Latency-sensitive jobs first, then FIFO by (arrival, id).
        ready.sort_by_key(|&i| (cells[i].class, cells[i].arrival, i));
        scheduled.clear();
        scheduled.extend_from_slice(&ready[..ready.len().min(n_cores)]);

        // Align every core on the scenario clock, then move the scheduled
        // jobs onto their cores for one quantum, pointing each core at
        // its tenant.
        for c in 0..n_cores {
            cores.core_mut(c).advance_to(now);
        }
        for (c, (slot, &ji)) in slots.iter_mut().zip(&scheduled).enumerate() {
            // INVARIANT: `ready` only holds admitted, unfinished jobs.
            let job = active[ji].take().expect("scheduled job is active");
            sys.bind_core(c, job.pid);
            *slot = CoreSlot::Busy(SliceStream {
                job,
                left: spec.quantum.max(1),
            });
        }

        cores.run_borrowed(&mut slots, &mut sys);
        for (slot, &ji) in slots.iter_mut().zip(&scheduled) {
            if let CoreSlot::Busy(s) = std::mem::replace(slot, CoreSlot::Idle) {
                active[ji] = Some(s.job);
            }
        }

        // Charge each job its core's advance and retire finished jobs.
        let mut slice_end = now;
        for (c, &ji) in scheduled.iter().enumerate() {
            let clock = cores.core_mut(c).report().cycles;
            slice_end = slice_end.max(clock);
            let st = &mut state[ji];
            st.busy += clock.saturating_sub(now);
            st.slices += 1;
            if st.first_scheduled.is_none() {
                st.first_scheduled = Some(now);
            }
            let done = active[ji].as_ref().is_some_and(|j| j.done);
            if done {
                st.finish = Some(clock);
                // INVARIANT: the pid was spawned at admission and the
                // job exits exactly once.
                sys.exit_process(active[ji].as_ref().expect("job is active").pid, clock)
                    .expect("scenario pids are live");
                active[ji] = None;
                completed += 1;
            }
        }
        ready.retain(|&ji| active[ji].is_some());

        // Stacked-DRAM pressure: scenario time spent above 90% residency.
        let (resident, capacity) = sys.policy().stacked_residency();
        if capacity > 0 && resident.saturating_mul(10) >= capacity.saturating_mul(9) {
            pressure_cycles += slice_end.saturating_sub(now);
        }
        now = slice_end;
    }

    // Per-job outcomes and per-class slowdown distributions.
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut by_class: BTreeMap<TenantClass, Vec<f64>> = BTreeMap::new();
    for cell in &cells {
        let st = &state[cell.id];
        let finish = st.finish.unwrap_or(now);
        let busy = st.busy.max(1);
        let slowdown = finish.saturating_sub(cell.arrival).max(busy) as f64 / busy as f64;
        by_class.entry(cell.class).or_default().push(slowdown);
        outcomes.push(JobOutcome {
            id: cell.id,
            tenant: cell.tenant.clone(),
            class: cell.class,
            arrival: cell.arrival,
            first_scheduled: st.first_scheduled.unwrap_or(cell.arrival),
            finish,
            busy_cycles: st.busy,
            slices: st.slices,
            slowdown,
        });
    }
    let latency =
        ClassStats::from_slowdowns(by_class.remove(&TenantClass::Latency).unwrap_or_default());
    let batch =
        ClassStats::from_slowdowns(by_class.remove(&TenantClass::Batch).unwrap_or_default());

    // Per-tenant aggregation, joining the guidance tier's per-pid
    // profiles back to tenant names.
    let profiles = sys
        .guidance()
        .map(|g| g.tenant_profiles().clone())
        .unwrap_or_default();
    let mut tenants: BTreeMap<String, TenantAgg> = BTreeMap::new();
    for cell in &cells {
        let agg = tenants.entry(cell.tenant.clone()).or_default();
        agg.completed += 1;
        if let Some(p) = pid_of[cell.id].and_then(|pid| profiles.get(&pid)) {
            agg.samples += p.samples;
            agg.promoted += p.promoted;
        }
    }
    let total_promoted: u64 = tenants.values().map(|t| t.promoted).sum();

    // Publish the scenario metric families next to the standard ones.
    let reg = sys.metrics_mut();
    reg.set_counter("scenario.jobs_completed", completed as u64);
    reg.set_gauge("scenario.pressure_cycles", pressure_cycles as f64);
    for (label, stats) in [("latency", &latency), ("batch", &batch)] {
        reg.set_counter(&format!("tenant.class.{label}.completed"), stats.completed);
        reg.set_gauge(
            &format!("tenant.class.{label}.p50_slowdown"),
            stats.p50_slowdown,
        );
        reg.set_gauge(
            &format!("tenant.class.{label}.p99_slowdown"),
            stats.p99_slowdown,
        );
        reg.set_gauge(
            &format!("tenant.class.{label}.mean_slowdown"),
            stats.mean_slowdown,
        );
    }
    for (name, agg) in &tenants {
        reg.set_counter(&format!("tenant.{name}.completed"), agg.completed);
        reg.set_counter(&format!("tenant.{name}.guidance_samples"), agg.samples);
        reg.set_counter(&format!("tenant.{name}.guidance_promotions"), agg.promoted);
        let share = if total_promoted > 0 {
            agg.promoted as f64 / total_promoted as f64
        } else {
            0.0
        };
        reg.set_gauge(&format!("tenant.{name}.stacked_share"), share);
    }

    // A scenario without jobs ran no quantum and reports no cores.
    let run = if cells.is_empty() {
        RunReport::default()
    } else {
        cores.report()
    };
    let system = sys.finalize(run);
    ScenarioReport {
        scenario: spec.name.clone(),
        arch: system.arch.clone(),
        seed,
        jobs: outcomes,
        latency,
        batch,
        pressure_cycles,
        system,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simkit::mem::ByteSize;

    fn tiny_params() -> ScaledParams {
        ScaledParams::tiny()
    }

    #[test]
    fn small_scenario_completes_every_job() {
        let spec = ScenarioSpec::small();
        let r = run_scenario(Architecture::ChameleonOpt, &tiny_params(), &spec, 7);
        assert_eq!(r.jobs.len(), spec.total_jobs());
        assert_eq!(
            r.latency.completed + r.batch.completed,
            spec.total_jobs() as u64
        );
        for j in &r.jobs {
            assert!(
                j.finish >= j.arrival,
                "job {} finishes after arriving",
                j.id
            );
            assert!(j.busy_cycles > 0, "job {} did work", j.id);
            assert!(j.slowdown >= 1.0, "slowdown is wall over busy");
            assert!(j.slices > 0);
        }
        assert!(r.latency.p99_slowdown >= r.latency.p50_slowdown);
        assert_eq!(r.system.workload, "scenario:small");
    }

    #[test]
    fn scenario_metrics_are_published() {
        let spec = ScenarioSpec::small();
        let r = run_scenario(Architecture::Guided, &tiny_params(), &spec, 7);
        let c = &r.system.metrics.counters;
        assert_eq!(
            c.get("scenario.jobs_completed").copied(),
            Some(spec.total_jobs() as u64)
        );
        assert!(c.contains_key("tenant.class.latency.completed"));
        assert!(c.contains_key("tenant.frontend.completed"));
        assert!(
            c.get("guidance.samples").copied().unwrap_or(0) > 0,
            "guided scenario must sample"
        );
        assert!(
            r.system
                .metrics
                .gauges
                .contains_key("tenant.frontend.stacked_share"),
            "stacked share gauge published"
        );
    }

    #[test]
    fn app_jobs_run_too() {
        let mut spec = ScenarioSpec::small();
        spec.tenants[1].workload = WorkloadKind::App {
            name: "mcf".to_owned(),
        };
        spec.tenants[1].jobs = 4;
        spec.tenants[0].jobs = 4;
        let r = run_scenario(Architecture::Pom, &tiny_params(), &spec, 5);
        assert_eq!(r.jobs.len(), 8);
    }

    /// Runs `small` with its first tenant edited into one of the specs
    /// `run_scenario` documents as panicking.
    fn run_with_first_tenant(workload: WorkloadKind, footprint: ByteSize) {
        let mut spec = ScenarioSpec::small();
        spec.tenants[0].workload = workload;
        spec.tenants[0].footprint = footprint;
        run_scenario(Architecture::ChameleonOpt, &tiny_params(), &spec, 1);
    }

    #[test]
    #[should_panic(expected = "Table II")]
    fn unknown_application_panics() {
        let name = "doom".to_owned();
        run_with_first_tenant(WorkloadKind::App { name }, ByteSize::mib(1));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn sub_page_synthetic_footprint_panics() {
        let scan = WorkloadKind::Scan { stride_lines: 1 };
        run_with_first_tenant(scan, ByteSize::bytes_exact(2048));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_skew_panics() {
        let zipf = WorkloadKind::Zipf { skew: f64::NAN };
        run_with_first_tenant(zipf, ByteSize::kib(256));
    }

    #[test]
    fn latency_class_waits_less_under_contention() {
        // Saturate two cores with simultaneous arrivals; the priority
        // scheduler must serve latency jobs ahead of batch jobs.
        let mut spec = ScenarioSpec::small();
        for t in &mut spec.tenants {
            t.arrivals_per_mcycle = 500.0;
            t.jobs = 30;
        }
        let r = run_scenario(Architecture::ChameleonOpt, &tiny_params(), &spec, 11);
        assert!(
            r.latency.p50_slowdown <= r.batch.p50_slowdown,
            "latency p50 {} must not exceed batch p50 {}",
            r.latency.p50_slowdown,
            r.batch.p50_slowdown
        );
    }
}
