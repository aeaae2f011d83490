//! Property tests for the metrics registry: snapshot/delta algebra,
//! epoch-accounting conservation, and event-trace ordering.

use chameleon_simkit::metrics::{EventKind, EventTrace, Registry, Snapshot};
use proptest::prelude::*;

/// Strategy for a small set of (name, base, increment) counter triples
/// with distinct names.
fn counter_triples() -> impl Strategy<Value = Vec<(String, u64, u64)>> {
    prop::collection::vec((0usize..8, 0u64..1_000_000, 0u64..1_000_000), 1..8).prop_map(|v| {
        let mut triples: Vec<(String, u64, u64)> = Vec::new();
        for (id, base, inc) in v {
            let name = format!("ctr.{id}");
            if !triples.iter().any(|(n, _, _)| *n == name) {
                triples.push((name, base, inc));
            }
        }
        triples
    })
}

proptest! {
    /// `later.delta(earlier)` holds exactly each counter's increase,
    /// omitting counters that did not move, whenever counters only move
    /// forward (the registry's monotone-counter regime).
    #[test]
    fn snapshot_delta_is_the_exact_increase(triples in counter_triples()) {
        let mut earlier = Snapshot::default();
        let mut later = Snapshot::default();
        for (name, base, inc) in &triples {
            earlier.counters.insert(name.clone(), *base);
            later.counters.insert(name.clone(), base + inc);
        }
        let delta = later.delta(&earlier);
        for (name, _base, inc) in &triples {
            prop_assert_eq!(delta.get(name).copied(), (*inc != 0).then_some(*inc));
        }
        prop_assert!(delta.keys().all(|k| triples.iter().any(|(n, _, _)| n == k)));
    }

    /// Summing every epoch's deltas reproduces the registry's final
    /// aggregate counters exactly — nothing is double-counted or lost.
    #[test]
    fn epoch_deltas_sum_to_final_aggregate(
        epochs in prop::collection::vec(counter_triples(), 1..6),
    ) {
        let mut reg = Registry::default();
        let mut now = 0u64;
        for epoch in &epochs {
            for (name, _base, inc) in epoch {
                let v = reg.counter(name) + inc;
                reg.set_counter(name, v);
            }
            now += 1_000;
            reg.end_epoch(now);
        }
        let mut summed: std::collections::BTreeMap<String, u64> = Default::default();
        for e in &reg.export().epochs {
            for (name, d) in &e.deltas {
                *summed.entry(name.clone()).or_insert(0) += d;
            }
        }
        for (name, total) in &summed {
            prop_assert_eq!(*total, reg.counter(name), "counter {}", name);
        }
        // And the reverse direction: every live counter is covered.
        for (name, v) in &reg.snapshot().counters {
            prop_assert_eq!(summed.get(name).copied().unwrap_or(0), *v);
        }
    }

    /// Events pushed in nondecreasing sim time iterate in nondecreasing
    /// sim time, regardless of how often the ring buffer wrapped, and
    /// the kept/dropped split is exact.
    #[test]
    fn trace_order_is_monotone_in_sim_time(
        gaps in prop::collection::vec(0u64..1_000, 1..64),
        capacity in 1usize..32,
    ) {
        let mut trace = EventTrace::new(capacity);
        let mut at = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            at += gap;
            trace.push(at, EventKind::Swap, i as u64);
        }
        prop_assert_eq!(trace.len(), gaps.len().min(capacity));
        prop_assert_eq!(trace.dropped() as usize, gaps.len() - trace.len());
        let times: Vec<u64> = trace.iter().map(|e| e.at).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "times {:?}", times);
        // The ring keeps the newest events: the last one pushed survives.
        prop_assert_eq!(times.last().copied(), Some(at));
    }
}
