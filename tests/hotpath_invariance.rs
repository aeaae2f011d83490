//! The hot-path optimisations are pure: the translation memo, the fused
//! L1/L2 fast path and the table-driven decoders must each produce a
//! bit-identical [`chameleon::SystemReport`] — same IPC, same hit rates,
//! same swap counts, same epoch timeline, same event trace. These tests
//! enforce that mechanically across *every* registered architecture
//! ([`Architecture::all`]), so a new scheme is covered the moment it
//! joins the registry and any future change that lets an optimisation
//! observe (or cause) a behavioural difference fails loudly rather than
//! skewing figures.

use chameleon::{Architecture, ScaledParams, System};

/// Runs one tiny measured cell in the given hot-path configuration.
fn run_cell_tuned(
    arch: Architecture,
    memo: bool,
    fast_path: bool,
    table_decode: bool,
) -> chameleon::SystemReport {
    let params = ScaledParams::tiny();
    let mut s = System::new(arch, &params);
    s.set_memo_enabled(memo);
    s.set_fast_path_enabled(fast_path);
    let mut streams = s.spawn_rate_workload("mcf", 30_000, 11).unwrap();
    for stream in &mut streams {
        stream.set_table_decode(table_decode);
    }
    s.prefault_all().unwrap();
    s.reset_measurement();
    s.run(streams)
}

/// Runs one tiny measured cell with the memo forced on or off (fused
/// walk and decode tables at their defaults: enabled).
fn run_cell(arch: Architecture, memo: bool) -> chameleon::SystemReport {
    run_cell_tuned(arch, memo, true, true)
}

/// Serialised form of a report: the full observable outcome, including
/// the metrics timeline and trace, with nothing hidden by float rounding
/// in a Display impl.
fn canonical(report: &chameleon::SystemReport) -> String {
    serde_json::to_string(report).expect("reports serialise")
}

/// Runs `cell` with the memo and the fast path in every on/off
/// combination, asserts each report matches the default (both on)
/// byte for byte, and returns the default report.
fn assert_memo_and_fast_path_invisible(
    what: &str,
    cell: impl Fn(bool, bool) -> chameleon::SystemReport,
) -> chameleon::SystemReport {
    let baseline = cell(true, true);
    let expected = canonical(&baseline);
    for (memo, fast) in [(false, true), (true, false), (false, false)] {
        assert_eq!(
            expected,
            canonical(&cell(memo, fast)),
            "memo={memo}, fast_path={fast} diverged {what}"
        );
    }
    baseline
}

/// Every registered architecture, not a hand-maintained list: adding a
/// scheme to [`Architecture::all`] automatically puts it under the memo
/// invariance contract.
#[test]
fn memo_invisible_for_every_registered_architecture() {
    for arch in Architecture::all() {
        let with_memo = run_cell(arch, true);
        let without = run_cell(arch, false);
        assert_eq!(
            canonical(&with_memo),
            canonical(&without),
            "{arch:?}: translation memo changed the simulated outcome"
        );
    }
}

/// The fused L1/L2 fast path and the table-driven decoders are pure
/// host-side optimisations: for every registered architecture, disabling
/// either (or both) must reproduce the default report byte for byte —
/// with the memo on and off, so together with the test above the whole
/// memo × fast path × table decode cube is covered and no switch can
/// hide behind another's code path.
#[test]
fn fast_path_and_decode_tables_invisible_for_every_registered_architecture() {
    for arch in Architecture::all() {
        let baseline = canonical(&run_cell_tuned(arch, true, true, true));
        for memo in [true, false] {
            for (fast, table) in [(false, true), (true, false), (false, false)] {
                assert_eq!(
                    baseline,
                    canonical(&run_cell_tuned(arch, memo, fast, table)),
                    "{arch:?}: memo={memo}, fast_path={fast}, table_decode={table} \
                     diverged from the default hot path"
                );
            }
        }
    }
}

/// The memo must also be invisible when mappings churn mid-run: an
/// AutoNUMA system migrates pages every epoch, exercising the
/// generation-flush path continuously. The fast path rides along:
/// migrations move frames under lines the fused walk may be serving.
#[test]
fn memo_invisible_under_numa_migration() {
    assert_memo_and_fast_path_invisible("under NUMA migration", |memo, fast_path| {
        let params = ScaledParams::tiny();
        let mut s = System::new(Architecture::AutoNuma { threshold_pct: 90 }, &params);
        s.set_memo_enabled(memo);
        s.set_fast_path_enabled(fast_path);
        s.set_epoch_accesses(500);
        let streams = s.spawn_rate_workload("stream", 60_000, 3).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        s.run(streams)
    });
}

/// Same invariance under swap pressure: an undersized flat memory pages
/// against the SSD, so translations are retired (and the memo flushed)
/// throughout the measured run, and demand faults fire on both the
/// memo-hit and memo-miss paths.
#[test]
fn memo_invisible_under_swap_pressure() {
    let baseline = assert_memo_and_fast_path_invisible("under swap pressure", |memo, fast_path| {
        let mut params = ScaledParams::tiny();
        params.hma.offchip.capacity = chameleon::simkit::mem::ByteSize::mib(16);
        params.footprint_scale = 64;
        let mut s = System::new(Architecture::FlatSmall, &params);
        s.set_memo_enabled(memo);
        s.set_fast_path_enabled(fast_path);
        let streams = s.spawn_rate_workload("stream", 60_000, 5).unwrap();
        s.prefault_all().unwrap();
        s.reset_measurement();
        s.run(streams)
    });
    assert!(
        baseline.major_faults > 0,
        "cell must actually swap to be a test"
    );
}
