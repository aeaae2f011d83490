//! The metrics subsystem: a registry of named counters and gauges with
//! per-epoch snapshots, plus a bounded event trace for discrete
//! simulation events.
//!
//! Every component keeps its own cheap stats struct on the hot path
//! ([`crate::stats`]); a [`MetricSource`] implementation *publishes* those
//! values into a [`Registry`] under a dotted prefix (`hma.swaps`,
//! `dram.stacked.row_hits`, `cache.l3.misses`, `os.major_faults`). The
//! registry is the single point experiment runners read from: it can
//! snapshot itself, diff snapshots into per-epoch deltas, and export
//! everything as one serialisable [`MetricsExport`] with a stable schema.
//!
//! Discrete events (mode transitions, segment swaps, `ISA-Alloc`/`ISA-Free`
//! calls, writebacks, page faults) are recorded into an [`EventTrace`] — a
//! fixed-capacity ring buffer that keeps the most recent events and counts
//! what it dropped, so tracing never grows without bound on long runs.
//!
//! # Naming convention
//!
//! Metric names are dotted paths: `<component>.<metric>`, lowercase,
//! `snake_case` leaves. Derived statistics published from a
//! [`crate::stats::RunningStat`] append `.mean`, `.min`, `.max` (gauges)
//! and `.count` (counter).
//!
//! # Epoch model
//!
//! Counters in the registry are *absolute* (publish overwrites with the
//! source's running total). [`Registry::end_epoch`] diffs the current
//! counters against the values at the previous epoch boundary and records
//! the difference as an [`EpochRecord`]; summing every epoch's deltas
//! therefore reproduces the final aggregate exactly (see the property
//! tests in `crates/simkit/tests/metrics_properties.rs`).
//!
//! # Example
//!
//! ```
//! use chameleon_simkit::metrics::Registry;
//!
//! let mut reg = Registry::default();
//! reg.set_counter("hma.swaps", 2);
//! reg.end_epoch(100);
//! reg.set_counter("hma.swaps", 5);
//! reg.end_epoch(200);
//! let export = reg.export();
//! assert_eq!(export.epochs[1].deltas["hma.swaps"], 3);
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::{Counter, RunningStat};
use crate::Cycle;

/// Version of the [`MetricsExport`] JSON schema. Bump on any breaking
/// change to the exported shape (the golden-schema test pins it).
pub const SCHEMA_VERSION: u32 = 1;

/// A component that can publish its statistics into a [`Registry`].
///
/// Implementations overwrite absolute values (counters are running totals,
/// gauges are current readings); publishing twice with the same prefix is
/// idempotent.
pub trait MetricSource {
    /// Publishes all metrics under `prefix` (e.g. `"dram.stacked."`).
    fn publish(&self, prefix: &str, reg: &mut Registry);
}

/// The kind of a discrete trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A segment group reconfigured from PoM mode to cache mode.
    ModeToCache,
    /// A segment group reconfigured from cache mode to PoM mode.
    ModeToPom,
    /// A competing-counter segment swap in PoM mode.
    Swap,
    /// A remap forced by `ISA-Alloc`/`ISA-Free` reconfiguration.
    IsaSwap,
    /// A segment fill into the stacked cache.
    Fill,
    /// A dirty segment written back to off-chip memory.
    Writeback,
    /// Cached segments dropped when a group left cache mode.
    Clear,
    /// An `ISA-Alloc` call reached the memory controller.
    IsaAlloc,
    /// An `ISA-Free` call reached the memory controller.
    IsaFree,
    /// A minor (mapping-only) page fault.
    MinorFault,
    /// A major (backing-store) page fault.
    MajorFault,
}

/// One discrete event in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub at: Cycle,
    /// What happened.
    pub kind: EventKind,
    /// The subject of the event: a segment group index for HMA events, a
    /// virtual page number for faults.
    pub subject: u64,
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s.
///
/// Keeps the most recent `capacity` events; older events are overwritten
/// and counted in [`EventTrace::dropped`]. Iteration is always oldest to
/// newest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventTrace {
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl EventTrace {
    /// Creates a trace that retains at most `capacity` events.
    ///
    /// A zero capacity disables tracing entirely (every push is dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest if the buffer is full.
    pub fn push(&mut self, at: Cycle, kind: EventKind, subject: u64) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        let ev = TraceEvent { at, kind, subject };
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted (or refused) because of the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates events oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let (older, newer) = (&self.events[self.head..], &self.events[..self.head]);
        older.iter().chain(newer.iter())
    }

    /// Discards all retained events and the drop count.
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// A point-in-time copy of the registry's counters and gauges.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Absolute counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings by name.
    pub gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    ///
    /// Names absent from `earlier` are treated as zero there, so newly
    /// appearing counters contribute their full value. Zero differences
    /// are omitted: a missing name means "no change", which keeps
    /// per-epoch records proportional to activity, not registry size.
    pub fn delta(&self, earlier: &Snapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(name, &v)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                let d = v.saturating_sub(before);
                (d != 0).then(|| (name.clone(), d))
            })
            // INVARIANT: snapshot deltas are taken at epoch boundaries,
            // amortized off the per-access hot path.
            .collect()
    }
}

/// Counter activity between two consecutive epoch boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub index: u64,
    /// Cycle at which the epoch ended.
    pub end_at: Cycle,
    /// Per-counter increase during this epoch.
    pub deltas: BTreeMap<String, u64>,
    /// Gauge readings at the end of the epoch.
    pub gauges: BTreeMap<String, f64>,
}

/// The serialisable dump of a registry: final aggregates, the per-epoch
/// timeline, and the retained event trace in chronological order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsExport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Final absolute counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge readings.
    pub gauges: BTreeMap<String, f64>,
    /// Always empty: nothing records histograms. Kept so the export
    /// schema (and the golden fixture) stay unchanged.
    pub histograms: BTreeMap<String, Vec<(u64, u64)>>,
    /// Per-epoch counter deltas, oldest first.
    pub epochs: Vec<EpochRecord>,
    /// Events evicted from the trace by the capacity cap.
    pub events_dropped: u64,
    /// Retained trace events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl Default for MetricsExport {
    fn default() -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            epochs: Vec::new(),
            events_dropped: 0,
            events: Vec::new(),
        }
    }
}

/// The central metrics registry.
///
/// Owns named counters and gauges, the epoch timeline, and an
/// [`EventTrace`]. See the module docs for the naming convention and the
/// epoch model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    epochs: Vec<EpochRecord>,
    /// Counter values at the last epoch boundary.
    epoch_base: Snapshot,
    trace: EventTrace,
}

impl Default for Registry {
    /// An empty registry whose trace retains [`Registry::TRACE_CAPACITY`]
    /// events.
    fn default() -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            epochs: Vec::new(),
            epoch_base: Snapshot::default(),
            trace: EventTrace::new(Self::TRACE_CAPACITY),
        }
    }
}

impl Registry {
    /// Event-trace capacity, of the registry and of every component
    /// trace it absorbs: enough to hold the interesting tail of a
    /// measurement run without unbounded growth.
    pub const TRACE_CAPACITY: usize = 4096;

    /// Sets a counter to an absolute value (publish semantics).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Publishes a [`Counter`]'s running total.
    pub fn set_counter_from(&mut self, name: &str, c: &Counter) {
        self.set_counter(name, c.value());
    }

    /// Current value of a counter (zero if never set).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge reading.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Publishes a [`RunningStat`] as `<name>.mean/.min/.max` gauges plus
    /// a `<name>.count` counter.
    pub fn set_stat(&mut self, name: &str, s: &RunningStat) {
        self.set_gauge(&format!("{name}.mean"), s.mean());
        self.set_gauge(&format!("{name}.min"), s.min());
        self.set_gauge(&format!("{name}.max"), s.max());
        self.set_counter(&format!("{name}.count"), s.count());
    }

    /// Merges externally collected events (e.g. a component's own trace)
    /// into this registry's trace, oldest first. The caller is responsible
    /// for ordering `events` by time if global monotonicity matters.
    pub fn absorb_events<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for ev in events {
            self.trace.push(ev.at, ev.kind, ev.subject);
        }
    }

    /// A point-in-time copy of counters and gauges.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        }
    }

    /// Closes the current epoch at `now`: records the counter deltas since
    /// the previous boundary (plus current gauges) and starts a new epoch.
    pub fn end_epoch(&mut self, now: Cycle) -> &EpochRecord {
        let snap = self.snapshot();
        let deltas = snap.delta(&self.epoch_base);
        self.epochs.push(EpochRecord {
            index: self.epochs.len() as u64,
            end_at: now,
            deltas,
            gauges: snap.gauges.clone(),
        });
        self.epoch_base = snap;
        // INVARIANT: pushed three lines above; the vec is non-empty.
        self.epochs.last().expect("epoch just pushed")
    }

    /// Exports everything as a stable, serialisable structure.
    pub fn export(&self) -> MetricsExport {
        MetricsExport {
            schema_version: SCHEMA_VERSION,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: BTreeMap::new(),
            epochs: self.epochs.clone(),
            events_dropped: self.trace.dropped(),
            events: self.trace.iter().copied().collect(),
        }
    }

    /// Clears all values, epochs, and events.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_publish_absolute_values() {
        let mut reg = Registry::default();
        reg.set_counter("a.x", 3);
        reg.set_counter("a.x", 5); // overwrite, not accumulate
        reg.set_gauge("a.g", 0.5);
        assert_eq!(reg.counter("a.x"), 5);
        assert_eq!(reg.export().gauges["a.g"], 0.5);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn epoch_deltas_diff_consecutive_boundaries() {
        let mut reg = Registry::default();
        reg.set_counter("c", 10);
        reg.end_epoch(100);
        reg.set_counter("c", 25);
        reg.set_counter("d", 4);
        reg.end_epoch(200);
        let epochs = reg.export().epochs;
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].deltas["c"], 10);
        assert_eq!(epochs[1].deltas["c"], 15);
        assert_eq!(epochs[1].deltas["d"], 4);
        assert_eq!(epochs[1].end_at, 200);
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_dropped() {
        let mut t = EventTrace::new(3);
        for i in 0..5u64 {
            t.push(i * 10, EventKind::Swap, i);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let subjects: Vec<u64> = t.iter().map(|e| e.subject).collect();
        assert_eq!(subjects, vec![2, 3, 4]);
        let times: Vec<Cycle> = t.iter().map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_capacity_trace_drops_everything() {
        let mut t = EventTrace::new(0);
        t.push(1, EventKind::Fill, 0);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn export_has_stable_schema() {
        let mut reg = Registry::default();
        reg.set_counter("c", 1);
        reg.absorb_events(&[TraceEvent {
            at: 9,
            kind: EventKind::IsaAlloc,
            subject: 2,
        }]);
        reg.end_epoch(10);
        let export = reg.export();
        assert_eq!(export.schema_version, SCHEMA_VERSION);
        assert!(export.histograms.is_empty());
        assert_eq!(export.events.len(), 1);
        assert_eq!(export.epochs.len(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut reg = Registry::default();
        reg.set_counter("c", 1);
        reg.absorb_events(&[TraceEvent {
            at: 1,
            kind: EventKind::Swap,
            subject: 0,
        }]);
        reg.end_epoch(5);
        reg.reset();
        assert_eq!(reg.counter("c"), 0);
        let export = reg.export();
        assert!(export.epochs.is_empty());
        assert!(export.events.is_empty());
        assert_eq!(export.events_dropped, 0);
    }

    #[test]
    fn stat_publishes_mean_min_max_count() {
        let mut s = RunningStat::new();
        s.record(2.0);
        s.record(4.0);
        let mut reg = Registry::default();
        reg.set_stat("lat", &s);
        let gauges = reg.export().gauges;
        assert_eq!(gauges["lat.mean"], 3.0);
        assert_eq!(gauges["lat.min"], 2.0);
        assert_eq!(gauges["lat.max"], 4.0);
        assert_eq!(reg.counter("lat.count"), 2);
    }
}
