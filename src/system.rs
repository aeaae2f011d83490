//! The full simulated system: cores → caches → OS translation →
//! heterogeneous memory architecture.

use chameleon_cache::{CacheStats, Hierarchy, HitLevel, PrefetchBuf, WritebackBuf};
use chameleon_core::policy::{HmaPolicy, ModeDistribution};
use chameleon_cpu::{MemorySystem, MultiCore, Reply, RunReport};
use chameleon_os::guidance::GuidanceEngine;
use chameleon_os::numa::AutoNuma;
use chameleon_os::page_table::PAGE_SIZE;
use chameleon_os::{OsConfig, OsError, OsKernel, Pid};
use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::metrics::{MetricSource, MetricsExport, Registry, TraceEvent};
use chameleon_simkit::Cycle;
use chameleon_workloads::{AppSpec, AppStream};
use serde::{Deserialize, Serialize};

use crate::{Architecture, ScaledParams};

/// Everything one run produces, in the units the paper reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemReport {
    /// Architecture label (paper legend spelling).
    pub arch: String,
    /// Workload name.
    pub workload: String,
    /// Per-core CPU results.
    pub run: RunReport,
    /// Stacked-DRAM hit rate (Figure 15 / Figure 2).
    pub stacked_hit_rate: f64,
    /// Average memory access latency in CPU cycles (Figure 19).
    pub amat: f64,
    /// Demand-driven segment swaps (Figure 17).
    pub swaps: u64,
    /// Swaps plus cache-mode dirty evictions (the paper's Figure 17
    /// accounting).
    pub effective_swaps: u64,
    /// Swaps triggered by ISA-Alloc/ISA-Free (Section VI-F).
    pub isa_swaps: u64,
    /// Per-segment ISA-Alloc invocations processed.
    pub isa_allocs: u64,
    /// Per-segment ISA-Free invocations processed.
    pub isa_frees: u64,
    /// Cache/PoM segment-group census at the end of the run (Figure 16).
    pub mode: ModeDistribution,
    /// OS major (SSD) faults during the run (Figure 5).
    pub major_faults: u64,
    /// OS minor (first-touch) faults during the run.
    pub minor_faults: u64,
    /// LLC misses per kilo-instruction (Table II).
    pub llc_mpki: f64,
    /// Full metrics-registry export: final aggregates, the per-epoch
    /// timeline, and the discrete-event trace. Absent (default) in
    /// reports produced before the registry existed.
    #[serde(default)]
    pub metrics: MetricsExport,
}

/// Slots per core in the translation memo (a power of two; the VPN's low
/// bits index the slot directly, like a direct-mapped TLB).
const MEMO_SLOTS: usize = 4096;

/// A complete simulated machine for one architecture.
///
/// See the crate-level docs for a usage example.
pub struct System {
    arch: Architecture,
    params: ScaledParams,
    os: OsKernel,
    hierarchy: Hierarchy,
    policy: Box<dyn HmaPolicy>,
    pids: Vec<Pid>,
    autonuma: Option<AutoNuma>,
    guidance: Option<GuidanceEngine>,
    epoch_accesses: u64,
    accesses_since_epoch: u64,
    workload: String,
    metrics: Registry,
    /// Per-core direct-mapped vpn→frame memo over `OsKernel::touch`'s
    /// resident fast path. Pure memoisation: a hit reproduces exactly the
    /// resident-touch outcome (paddr, no fault, zero stall), which has no
    /// kernel side effects. The whole memo is flushed whenever the
    /// kernel's mapping generation moves (any translation-retiring event:
    /// swap-out, release, exit, migration), so it can never serve a stale
    /// frame; debug builds check every hit against
    /// [`OsKernel::peek_translate`]. Laid out core-major:
    /// `core * MEMO_SLOTS + (vpn & mask)`.
    memo_tags: Vec<u64>,
    memo_frames: Vec<u64>,
    memo_gen: u64,
    /// The hierarchy walk's dirty LLC victims and prefetch candidates:
    /// one pair for the run, which `access_into` refills on every
    /// reference.
    writebacks: WritebackBuf,
    prefetches: PrefetchBuf,
}

impl System {
    /// Builds a system of the given architecture.
    ///
    /// # Panics
    ///
    /// Panics if group-aware placement is requested for a visible-stacked
    /// architecture whose capacities do not tile into segment groups
    /// ([`HmaConfig::geometry`](chameleon_core::HmaConfig::geometry)),
    /// e.g. an off-chip:stacked ratio beyond 254.
    ///
    /// Panics if the architecture's physical memory map is larger than
    /// the caches can address ([`chameleon_cache::CacheConfig::addressable_bytes`]: 64 GiB
    /// with 64-byte lines), since a wider physical address would alias
    /// another line in the caches' 32-bit keys.
    pub fn new(arch: Architecture, params: &ScaledParams) -> Self {
        let map = arch.memory_map(&params.hma);
        let addressable = params
            .l1
            .addressable_bytes()
            .min(params.l2.addressable_bytes())
            .min(params.l3.addressable_bytes());
        assert!(
            map.total().bytes() <= addressable,
            "a {} physical memory map is beyond the {} the caches' 32-bit keys address",
            map.total(),
            ByteSize::bytes_exact(addressable)
        );
        let group_placement = (params.group_aware_placement
            && arch.visibility() == chameleon_os::Visibility::Both)
            .then(|| params.hma.geometry());
        let os_cfg = OsConfig {
            visibility: arch.visibility(),
            preference: arch.preference(),
            group_placement,
        };
        let os = OsKernel::new(os_cfg, map);
        let mut hierarchy = Hierarchy::new(
            params.cores,
            params.l1.clone(),
            params.l2.clone(),
            params.l3.clone(),
        );
        if let Some(pf) = params.prefetcher {
            hierarchy = hierarchy.with_prefetcher(pf);
        }
        let policy = arch.build_policy(&params.hma);
        let autonuma = arch.autonuma().map(AutoNuma::new);
        let guidance = arch.guidance();
        Self {
            arch,
            params: params.clone(),
            os,
            hierarchy,
            policy,
            pids: Vec::new(),
            autonuma,
            guidance,
            epoch_accesses: 20_000,
            accesses_since_epoch: 0,
            workload: String::new(),
            metrics: Registry::default(),
            memo_tags: vec![u64::MAX; params.cores * MEMO_SLOTS],
            memo_frames: vec![0; params.cores * MEMO_SLOTS],
            memo_gen: 0,
            writebacks: WritebackBuf::new(),
            prefetches: PrefetchBuf::new(),
        }
    }

    /// The OS kernel (free-space telemetry, fault counters).
    pub fn os(&self) -> &OsKernel {
        &self.os
    }

    /// The hardware policy (hit rates, swap counters).
    pub fn policy(&self) -> &dyn HmaPolicy {
        self.policy.as_ref()
    }

    /// The cache hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Publishes every component's statistics into the registry under the
    /// standard prefixes (`hma.`, `dram.stacked.`, `dram.offchip.`,
    /// `cache.l1.`/`l2.`/`l3.`, `os.`).
    fn publish_metrics(
        reg: &mut Registry,
        policy: &dyn HmaPolicy,
        hierarchy: &Hierarchy,
        os: &OsKernel,
        guidance: Option<&GuidanceEngine>,
        cores: usize,
    ) {
        policy.stats().publish("hma.", reg);
        // Occupancy as gauges so every epoch records an absolute reading
        // (counter deltas cannot express a shrinking value).
        let (resident, capacity) = policy.stacked_residency();
        reg.set_gauge("hma.residency.resident_bytes", resident as f64);
        reg.set_gauge("hma.residency.capacity_bytes", capacity as f64);
        let mode = policy.mode_distribution();
        reg.set_counter("hma.mode.cache_groups", mode.cache_groups);
        reg.set_counter("hma.mode.pom_groups", mode.pom_groups);
        reg.set_gauge("hma.mode.cache_fraction", mode.cache_fraction());
        let devices = policy.devices();
        devices.stacked.stats().publish("dram.stacked.", reg);
        devices.offchip.stats().publish("dram.offchip.", reg);
        let mut l1 = CacheStats::default();
        let mut l2 = CacheStats::default();
        for core in 0..cores {
            l1.merge(hierarchy.l1(core).stats());
            l2.merge(hierarchy.l2(core).stats());
        }
        l1.publish("cache.l1.", reg);
        l2.publish("cache.l2.", reg);
        hierarchy.l3().stats().publish("cache.l3.", reg);
        os.stats().publish("os.", reg);
        // Guidance-tier telemetry is part of the stable schema: published
        // as zeros when the architecture has no guidance engine so every
        // run exports the same key set.
        reg.set_counter(
            "guidance.samples",
            guidance.map_or(0, |g| g.samples_total()),
        );
        reg.set_counter(
            "guidance.promotions",
            guidance.map_or(0, |g| g.promoted_total()),
        );
        reg.set_counter(
            "guidance.demotions",
            guidance.map_or(0, |g| g.demoted_total()),
        );
        reg.set_counter("guidance.enomem", guidance.map_or(0, |g| g.enomem_total()));
        reg.set_gauge(
            "guidance.tracked_pages",
            guidance.map_or(0.0, |g| g.tracked_pages() as f64),
        );
    }

    /// Publishes current values and closes a metrics epoch at `now`.
    fn end_metrics_epoch(&mut self, now: Cycle) {
        Self::publish_metrics(
            &mut self.metrics,
            self.policy.as_ref(),
            &self.hierarchy,
            &self.os,
            self.guidance.as_ref(),
            self.params.cores,
        );
        self.metrics.end_epoch(now);
    }

    /// The guidance engine itself (per-tenant profiles), when present.
    pub fn guidance(&self) -> Option<&GuidanceEngine> {
        self.guidance.as_ref()
    }

    /// Sets the epoch length in LLC misses. Each epoch boundary closes a
    /// metrics-registry epoch record, then ends the AutoNUMA scan epoch
    /// (the paper's `numa_balancing_scan_period`, which it expresses as
    /// 10M processor cycles; here an access count so scaled runs close
    /// epochs too) and the guidance tier's epoch, so the migrations an
    /// epoch triggers land in the next record.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero.
    pub fn set_epoch_accesses(&mut self, accesses: u64) {
        assert!(accesses > 0, "epoch length must be non-zero");
        self.epoch_accesses = accesses;
    }

    /// Spawns the paper's rate-mode workload: one copy of `app` per core.
    /// Returns the per-core instruction streams to pass to [`System::run`].
    ///
    /// # Errors
    ///
    /// Returns an error string if `app` is not a Table II application.
    pub fn spawn_rate_workload(
        &mut self,
        app: &str,
        instructions_per_core: u64,
        seed: u64,
    ) -> Result<Vec<AppStream>, String> {
        let spec = AppSpec::parse(app)?.scaled(self.params.footprint_scale);
        Ok(self.spawn_rate_workload_spec(&spec, instructions_per_core, seed))
    }

    /// Like [`System::spawn_rate_workload`] but with an explicit,
    /// already-scaled specification (custom phase churn, tweaked knobs).
    pub fn spawn_rate_workload_spec(
        &mut self,
        spec: &AppSpec,
        instructions_per_core: u64,
        seed: u64,
    ) -> Vec<AppStream> {
        self.workload = spec.name.clone();
        for _ in 0..self.params.cores {
            let pid = self.os.spawn(spec.per_copy_footprint());
            self.pids.push(pid);
        }
        self.rate_streams(spec, instructions_per_core, seed)
    }

    /// One stream of `spec` per core, each seeded from `seed` and its
    /// core index.
    fn rate_streams(
        &self,
        spec: &AppSpec,
        instructions_per_core: u64,
        seed: u64,
    ) -> Vec<AppStream> {
        (0..self.params.cores)
            .map(|core| {
                AppStream::new(
                    spec,
                    instructions_per_core,
                    seed.wrapping_mul(0x9E37_79B9).wrapping_add(core as u64),
                )
            })
            .collect()
    }

    /// Spawns a bare process with the given footprint for scenario-driven
    /// scheduling (no instruction stream attached). The caller points
    /// cores at it with [`System::bind_core`] and retires it with
    /// [`System::exit_process`]. Pages are demand-allocated on first
    /// touch — scenario jobs are not prefaulted.
    pub fn spawn_process(&mut self, footprint: ByteSize) -> Pid {
        self.os.spawn(footprint)
    }

    /// Exits a process: releases its frames (reported to the hardware as
    /// `ISA-Free` churn) and retires its translations, which flushes the
    /// memo via the mapping generation.
    ///
    /// # Errors
    ///
    /// Propagates OS errors (an unknown pid indicates a driver bug).
    pub fn exit_process(&mut self, pid: Pid, now: Cycle) -> Result<(), OsError> {
        self.os.exit(pid, now, self.policy.as_mut())
    }

    /// Points `core` at `pid` for subsequent accesses (time-slicing).
    /// Grows the pid table on first binding and flushes the core's memo
    /// slots whenever the binding changes: the memo is keyed by VPN only,
    /// so entries cached for the previous tenant would mistranslate.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn bind_core(&mut self, core: usize, pid: Pid) {
        assert!(core < self.params.cores, "core {core} out of range");
        if self.pids.len() <= core {
            self.pids.resize(core + 1, pid);
            self.flush_core_memo(core);
        } else if self.pids[core] != pid {
            self.pids[core] = pid;
            self.flush_core_memo(core);
        }
    }

    fn flush_core_memo(&mut self, core: usize) {
        let start = core * MEMO_SLOTS;
        self.memo_tags[start..start + MEMO_SLOTS]
            .iter_mut()
            .for_each(|t| *t = u64::MAX);
    }

    /// Names the workload in reports (scenario drivers compose their own
    /// labels; the spawn helpers set it from the application name).
    pub fn set_workload_name(&mut self, name: &str) {
        self.workload = name.to_owned();
    }

    /// Mutable access to the metrics registry, for drivers that publish
    /// their own metric families (per-tenant scenario counters).
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Finalises a scenario-driven run: closes the last metrics epoch,
    /// folds the component event traces, and produces the standard
    /// report — what [`System::run`] does once its cores stop.
    pub fn finalize(&mut self, run: RunReport) -> SystemReport {
        self.report(run)
    }

    /// Touches every page of every process once (the paper's workloads
    /// allocate their whole footprint up front), reporting allocations to
    /// the hardware via `ISA-Alloc`.
    ///
    /// # Errors
    ///
    /// Propagates OS errors (which indicate a configuration bug).
    pub fn prefault_all(&mut self) -> Result<(), OsError> {
        let pids = self.pids.clone();
        for pid in pids {
            let mut vaddr = 0;
            loop {
                match self.os.touch(pid, vaddr, true, 0, self.policy.as_mut()) {
                    Ok(_) => {}
                    Err(OsError::OutOfRange(_)) => break,
                    Err(e) => return Err(e),
                }
                vaddr += PAGE_SIZE;
            }
        }
        Ok(())
    }

    /// Clears all statistics and settles in-flight traffic; call between
    /// warm-up (prefault) and the measured run.
    pub fn reset_measurement(&mut self) {
        self.policy.settle();
        self.policy.reset_stats();
        self.hierarchy.reset_stats();
        self.os.reset_stats();
        self.metrics.reset();
        self.accesses_since_epoch = 0;
    }

    /// Runs the streams to completion and reports everything the paper's
    /// figures need.
    pub fn run(&mut self, streams: Vec<AppStream>) -> SystemReport {
        let run = self.run_cores(streams);
        self.report(run)
    }

    /// Drives one set of streams to completion without closing out the
    /// report (warm-up runs reuse this).
    fn run_cores(&mut self, streams: Vec<AppStream>) -> RunReport {
        let mut cores = MultiCore::new(self.params.cores, self.params.core);
        cores.run(streams, self)
    }

    /// The paper's measurement protocol (Section VI-A): allocate the full
    /// footprint, fast-forward with a warm-up run so caches and the
    /// remapping tables reach steady state, then measure a fresh run of
    /// `params.instructions_per_core` instructions per core.
    ///
    /// # Errors
    ///
    /// Returns an error string for an unknown application.
    pub fn run_paper_protocol(&mut self, app: &str, seed: u64) -> Result<SystemReport, String> {
        let spec = AppSpec::parse(app)?.scaled(self.params.footprint_scale);
        // Low-intensity applications run proportionally more instructions
        // so their DRAM-touch counts are comparable (the paper's
        // 500M-instruction windows give every application ample training
        // traffic). Compute instructions are batched, so this costs
        // little simulation time.
        let boost = (24.0 / spec.llc_mpki).clamp(1.0, 8.0);
        let measure = (self.params.instructions_per_core as f64 * boost) as u64;
        let warmup = (measure / 2).max(1);
        let streams = self.spawn_rate_workload_spec(&spec, warmup, seed);
        self.prefault_all().map_err(|e| e.to_string())?;
        // Warm-up: same seed, so the same hot/medium regions are touched.
        let _ = self.run_cores(streams);
        self.reset_measurement();
        let streams = self.rate_streams(&spec, measure, seed);
        Ok(self.run(streams))
    }

    fn report(&mut self, run: RunReport) -> SystemReport {
        // Close the final (possibly partial) epoch so the timeline covers
        // the whole run, then fold the component event traces into the
        // registry in global time order.
        self.end_metrics_epoch(run.makespan());
        let mut events: Vec<TraceEvent> = Vec::new();
        if let Some(trace) = self.policy.events() {
            events.extend(trace.iter().copied());
        }
        events.extend(self.os.events().iter().copied());
        events.sort_by_key(|e| e.at);
        self.metrics.absorb_events(events.iter());

        let stats = self.policy.stats();
        let instructions = run.total_instructions();
        let l3_misses = self.hierarchy.l3().stats().misses.value();
        SystemReport {
            arch: self.arch.label(),
            workload: self.workload.clone(),
            run,
            stacked_hit_rate: stats.stacked_hit_rate(),
            amat: stats.amat(),
            swaps: stats.swaps.value(),
            effective_swaps: stats.effective_swaps(),
            isa_swaps: stats.isa_swaps.value(),
            isa_allocs: stats.isa_allocs.value(),
            isa_frees: stats.isa_frees.value(),
            mode: self.policy.mode_distribution(),
            major_faults: self.os.stats().major_faults.value(),
            minor_faults: self.os.stats().minor_faults.value(),
            llc_mpki: if instructions == 0 {
                0.0
            } else {
                l3_misses as f64 * 1000.0 / instructions as f64
            },
            metrics: self.metrics.export(),
        }
    }
}

impl MemorySystem for System {
    // lint: hot-path
    fn access(&mut self, core: usize, vaddr: u64, write: bool, now: u64) -> Reply {
        // Translate. The memo short-circuits the kernel for the resident
        // fast path: a hit reproduces the resident-touch outcome exactly
        // (paddr, no fault, zero stall — the kernel records nothing on a
        // resident touch), so simulated behaviour is unchanged. Debug
        // builds check every hit against the page table.
        let vpn = vaddr / PAGE_SIZE;
        let slot = core * MEMO_SLOTS + (vpn as usize & (MEMO_SLOTS - 1));
        let gen = self.os.mapping_generation();
        if gen != self.memo_gen {
            // A translation was retired somewhere since the last
            // reference; drop everything.
            self.memo_gen = gen;
            self.memo_tags.iter_mut().for_each(|t| *t = u64::MAX);
        }
        let (paddr, fault_stall) = if self.memo_tags[slot] == vpn {
            let paddr = self.memo_frames[slot] + vaddr % PAGE_SIZE;
            debug_assert_eq!(
                self.os.peek_translate(self.pids[core], vaddr),
                Some(paddr),
                "translation memo served a stale frame"
            );
            (paddr, 0)
        } else {
            let pid = self.pids[core];
            let touch = self
                .os
                .touch(pid, vaddr, write, now, self.policy.as_mut())
                // INVARIANT: streams wrap addresses modulo the footprint.
                .expect("streams stay within their process footprint");
            // The touch itself may have evicted a page to make room;
            // only cache the fresh translation if no mapping died.
            if self.os.mapping_generation() == self.memo_gen {
                self.memo_tags[slot] = vpn;
                self.memo_frames[slot] = touch.paddr - vaddr % PAGE_SIZE;
            }
            (touch.paddr, touch.stall)
        };

        let (level, sram_latency) = self.hierarchy.access_into(
            core,
            paddr,
            write,
            &mut self.writebacks,
            &mut self.prefetches,
        );
        let mut latency = sram_latency as u64;
        let issue = now + latency;

        if level == HitLevel::Memory {
            latency += self.policy.access(paddr, write, issue);
            if self.autonuma.is_some() || self.guidance.is_some() {
                let node = self.os.memory_map().node_of(paddr);
                if let Some(numa) = self.autonuma.as_mut() {
                    numa.record_access(paddr, node);
                }
                if let Some(guidance) = self.guidance.as_mut() {
                    guidance.record_access(self.pids[core], paddr, node);
                }
            }
            self.accesses_since_epoch += 1;
            if self.accesses_since_epoch >= self.epoch_accesses {
                self.accesses_since_epoch = 0;
                self.end_metrics_epoch(issue);
                if let Some(numa) = self.autonuma.as_mut() {
                    numa.end_epoch(&mut self.os, self.policy.as_mut(), issue);
                }
                if let Some(guidance) = self.guidance.as_mut() {
                    guidance.end_epoch(&mut self.os, self.policy.as_mut(), issue);
                }
            }
        }
        // Dirty LLC victims drain to memory as posted writes.
        for &wb in &self.writebacks {
            self.policy.writeback(wb, issue);
        }
        // Stride-prefetch candidates: fetch from memory (off the critical
        // path) and install in the LLC, draining any dirty line an install
        // displaces. Addresses beyond the managed physical range are
        // dropped.
        if !self.prefetches.is_empty() {
            let map = *self.os.memory_map();
            let lo = match self.os.config().visibility {
                chameleon_os::Visibility::OffchipOnly => map.base(chameleon_os::NodeId::Offchip),
                chameleon_os::Visibility::Both => 0,
            };
            let hi = map.total().bytes();
            for &pf in &self.prefetches {
                if pf >= lo && pf < hi {
                    self.policy.access(pf, false, issue);
                    if let Some(wb) = self.hierarchy.install_prefetch(pf) {
                        self.policy.writeback(wb, issue);
                    }
                }
            }
        }

        Reply {
            latency,
            fault_stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tiny(arch: Architecture) -> SystemReport {
        let params = ScaledParams::tiny();
        let mut s = System::new(arch, &params);
        let streams = s.spawn_rate_workload("mcf", 20_000, 1).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        s.run(streams)
    }

    #[test]
    #[should_panic(expected = "a 64.1GiB physical memory map is beyond the 64.0GiB")]
    fn memory_map_beyond_the_cache_keys_is_rejected() {
        // 64 MiB stacked + 64 GiB off-chip: the off-chip node's top 64 MiB
        // would alias the bottom of memory in a 32-bit key.
        let mut params = ScaledParams::laptop();
        params.hma.offchip.capacity = ByteSize::gib(64);
        let _ = System::new(Architecture::Pom, &params);
    }

    #[test]
    #[should_panic(expected = "ratio of at most 254, got 383")]
    fn group_placement_rejects_ratio_beyond_u8_slots() {
        // 384 slots per group would wrap to 128 in a `u8`.
        let mut params = ScaledParams::laptop().with_ratio(383).unwrap();
        params.group_aware_placement = true;
        let _ = System::new(Architecture::ChameleonOpt, &params);
    }

    #[test]
    fn chameleon_opt_end_to_end() {
        let r = run_tiny(Architecture::ChameleonOpt);
        assert!(r.run.geomean_ipc() > 0.0);
        assert_eq!(r.arch, "Chameleon-Opt");
        assert_eq!(r.workload, "mcf");
        assert!(r.stacked_hit_rate > 0.0 && r.stacked_hit_rate <= 1.0);
        assert_eq!(r.major_faults, 0, "footprint fits: no thrashing");
    }

    #[test]
    fn flat_baselines_never_touch_stacked() {
        let r = run_tiny(Architecture::FlatSmall);
        assert_eq!(r.stacked_hit_rate, 0.0);
        assert_eq!(r.swaps, 0);
    }

    #[test]
    fn pom_swaps_chameleon_swaps_less() {
        let pom = run_tiny(Architecture::Pom);
        let opt = run_tiny(Architecture::ChameleonOpt);
        assert!(pom.swaps > 0, "PoM must be swapping");
        assert!(
            opt.effective_swaps <= pom.effective_swaps,
            "Chameleon-Opt ({}) should not out-swap PoM ({})",
            opt.effective_swaps,
            pom.effective_swaps
        );
    }

    #[test]
    fn autonuma_produces_epoch_reports() {
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::AutoNuma { threshold_pct: 90 }, &params);
        s.set_epoch_accesses(500);
        let streams = s.spawn_rate_workload("stream", 100_000, 3).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        let r = s.run(streams);
        assert!(
            r.metrics.epochs.len() > 1,
            "long runs must close at least one epoch"
        );
    }

    #[test]
    fn autonuma_full_threshold_cell_runs() {
        // `autonuma-100` parses, so its cell must build and run too.
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::AutoNuma { threshold_pct: 100 }, &params);
        s.set_epoch_accesses(500);
        let streams = s.spawn_rate_workload("mcf", 20_000, 1).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        let r = s.run(streams);
        assert!(r.run.geomean_ipc() > 0.0);
        assert!(r.metrics.epochs.len() > 1, "the balancer closes epochs");
    }

    #[test]
    fn guided_produces_epoch_reports_and_metrics() {
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::Guided, &params);
        s.set_epoch_accesses(500);
        let streams = s.spawn_rate_workload("stream", 100_000, 3).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        let r = s.run(streams);
        // The report closes the last metrics epoch; every earlier one
        // closed together with a guidance epoch.
        assert!(
            r.metrics.epochs.len() > 1,
            "long runs must close at least one guidance epoch"
        );
        let samples = r.metrics.counters.get("guidance.samples");
        assert!(samples.copied().unwrap_or(0) > 0, "profiler must sample");
    }

    #[test]
    fn bind_core_flushes_stale_translations() {
        // Two processes time-share core 0, each touching all 16 of its
        // pages twice per slice. Each process faults its pages in during
        // its first slice only. Without the bind-time flush, the memo
        // would serve `a`'s frames to `b`, and `b`'s first slice would
        // not fault.
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::ChameleonOpt, &params);
        let a = s.spawn_process(ByteSize::kib(64));
        let b = s.spawn_process(ByteSize::kib(64));
        let mut faults = [0u32; 4];
        for (slice, count) in faults.iter_mut().enumerate() {
            s.bind_core(0, if slice % 2 == 0 { a } else { b });
            for i in 0..32u64 {
                let now = slice as u64 * 10_000 + i;
                if s.access(0, i * PAGE_SIZE % (64 * 1024), false, now)
                    .fault_stall
                    > 0
                {
                    *count += 1;
                }
            }
        }
        assert_eq!(faults, [16, 16, 0, 0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale frame")]
    fn memo_hit_is_checked_against_the_page_table() {
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::ChameleonOpt, &params);
        let pid = s.spawn_process(ByteSize::kib(64));
        s.bind_core(0, pid);
        // Fault page 0 in, which memoises it in core 0's slot 0; then
        // corrupt that slot and hit it.
        s.access(0, 0, false, 0);
        s.memo_frames[0] += PAGE_SIZE;
        s.access(0, 0, false, 1);
    }

    #[test]
    fn unknown_app_is_an_error() {
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::Pom, &params);
        assert!(s.spawn_rate_workload("doom", 1000, 0).is_err());
    }

    #[test]
    fn prefetcher_option_runs_and_reduces_llc_misses() {
        let run = |pf: Option<chameleon_cache::PrefetchConfig>| {
            let mut params = ScaledParams::tiny();
            params.prefetcher = pf;
            let mut s = System::new(Architecture::Pom, &params);
            let streams = s.spawn_rate_workload("stream", 60_000, 2).unwrap();
            s.prefault_all().unwrap();
            s.reset_measurement();
            let r = s.run(streams);
            (r.llc_mpki, r.run.geomean_ipc())
        };
        let (mpki_off, _) = run(None);
        let (mpki_on, ipc_on) = run(Some(chameleon_cache::PrefetchConfig::default()));
        assert!(ipc_on > 0.0);
        assert!(
            mpki_on < mpki_off,
            "prefetching should convert misses to L3 hits ({mpki_on} vs {mpki_off})"
        );
    }

    #[test]
    fn oversubscription_causes_major_faults() {
        // FlatSmall sized below the workload footprint thrashes.
        let mut params = ScaledParams::tiny();
        params.hma.offchip.capacity = chameleon_simkit::mem::ByteSize::mib(16);
        params.footprint_scale = 64; // bigger footprints
        let mut s = System::new(Architecture::FlatSmall, &params);
        let streams = s.spawn_rate_workload("stream", 200_000, 5).unwrap();
        // Allocate the whole (over-sized) footprint, then run: the
        // resident set no longer fits, so the run pages against the SSD.
        s.prefault_all().unwrap();
        s.reset_measurement();
        let r = s.run(streams);
        assert!(r.major_faults > 0, "expected thrashing");
        assert!(
            r.run.mean_running_utilization() < 0.9,
            "faults tank utilisation"
        );
    }
}
