//! perfbench: the repository benchmark (see README.md).
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --work <dir>` runs one workload through the simulator's public API.
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the per-layer probes instead. The last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod churn;
mod measure;
mod rate;
mod zoo;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use chameleon::Architecture;

/// The workloads, in README order.
const WORKLOADS: [&str; 4] = ["rate-mcf", "rate-minighost", "zoo-grid", "tenant-churn"];

/// Metrics a `--trace 0` run reports.
const END_TO_END: [&str; 5] = [
    "wall_s",
    "setup_s",
    "sim_maccess_per_s",
    "sim_minstr_per_s",
    "peak_rss_mib",
];

/// Metrics a `--trace 1` run reports, besides the per-architecture sweep
/// cells that [`per_layer_names`] adds.
const PER_LAYER: [&str; 26] = [
    "workloads.decode_ns_per_ref",
    "cpu.driver_self_ns_per_ref",
    "cpu.access_ns_per_ref",
    "os.touch_calls_per_kref",
    "os.touch_ns_per_call",
    "os.alloc_free_ns_per_page",
    "os.isa_allocs",
    "os.isa_frees",
    "cache.walk_ns_per_ref",
    "cache.fast_path_ratio",
    "cache.l1_hit_ratio",
    "cache.llc_misses_per_kref",
    "core.hma_ns_per_miss",
    "core.stacked_hit_ratio",
    "core.swaps_per_kmiss",
    "core.mode_cache_fraction",
    "dram.ns_per_request",
    "dram.row_hit_ratio",
    "simkit.finalize_ms",
    "simkit.report_json_ms",
    "sweep.straggler_idle_s",
    "sweep.store_save_ms_per_cell",
    "sweep.store_load_ms_per_cell",
    "scenarios.host_us_per_job",
    "unattributed_ns_per_ref",
    "trace.overhead_ratio",
];

fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = PER_LAYER.iter().map(|s| (*s).to_owned()).collect();
    for arch in Architecture::all() {
        let a = zoo::arch_name(arch);
        names.push(format!("sweep.cell_setup_s.{a}"));
        names.push(format!("sweep.cell_run_s.{a}"));
    }
    names
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory: sweep stores (removed after use) and result
    /// files.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    const FLAGS: [&str; 5] = ["workload", "seed", "seconds", "trace", "work"];
    let mut given = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| FLAGS.contains(k))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        given.insert(key.to_owned(), value);
    }
    let take = |k: &str| {
        given
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work: PathBuf::from(take("work")?),
    })
}

/// Correctness checks and metric samples gathered by one run.
#[derive(Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    samples: BTreeMap<String, (Vec<f64>, &'static str)>,
    /// Metrics already reported this round.
    seen: BTreeSet<String>,
    /// Timed after every round of an untraced run.
    calibration: Option<measure::Calibration>,
    calibration_s: Vec<f64>,
}

impl Ledger {
    /// Counts one checked operation; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Adds one sample of a metric. Within a round the first probe to
    /// report a name owns it, so a workload's own probe, which runs
    /// first, wins over the fallback probes.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.seen.insert(name.to_owned()) {
            self.samples
                .entry(name.to_owned())
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
    }

    /// Closes a round: the next samples are a new repetition.
    pub fn next_round(&mut self) {
        self.seen.clear();
        if let Some(c) = &self.calibration {
            self.calibration_s.push(c.time_s());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = measure::host_record();
    println!(
        "perfbench host: {}",
        host.iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut ledger = Ledger::default();
    if args.trace {
        trace(&args, &mut ledger);
    } else {
        ledger.calibration = Some(measure::Calibration::new());
        match args.workload.as_str() {
            "rate-mcf" => rate::measure(&rate::MCF, &args, &mut ledger),
            "rate-minighost" => rate::measure(&rate::MINIGHOST, &args, &mut ledger),
            "zoo-grid" => zoo::measure(&args, &mut ledger),
            _ => churn::measure(&args, &mut ledger),
        }
        let rss = measure::peak_rss_mib();
        ledger.check(rss.is_some(), || "peak RSS is not readable".to_owned());
        if let Some(rss) = rss {
            ledger.metric("peak_rss_mib", rss, "MiB");
        }
    }
    finish(&args, &host, ledger);
}

/// Per-layer run: every probe, the workload's own first, fed from the
/// workload's inputs where it exercises the layer and from a small fixed
/// cell of the same kind where it does not.
fn trace(args: &Args, ledger: &mut Ledger) {
    measure::repeat_for(args.seconds, 1, || {
        match args.workload.as_str() {
            "rate-mcf" | "rate-minighost" => {
                let w = if args.workload == "rate-mcf" {
                    &rate::MCF
                } else {
                    &rate::MINIGHOST
                };
                rate::probe(&w.traced, args.seed, ledger);
                zoo::probe(zoo::PROBE_INSTRUCTIONS, args.seed, &args.work, ledger);
                churn::probe(&churn::PROBE, args.seed, ledger);
            }
            "zoo-grid" => {
                zoo::probe(zoo::GRID_INSTRUCTIONS, args.seed, &args.work, ledger);
                rate::probe(&rate::PROBE, args.seed, ledger);
                churn::probe(&churn::PROBE, args.seed, ledger);
            }
            _ => {
                churn::probe(&churn::CHURN, args.seed, ledger);
                rate::probe(&rate::PROBE, args.seed, ledger);
                zoo::probe(zoo::PROBE_INSTRUCTIONS, args.seed, &args.work, ledger);
            }
        }
        ledger.next_round();
    });
}

/// Prints the metric table, writes the result file and prints the JSON
/// result line.
fn finish(args: &Args, host: &[(&'static str, String)], mut ledger: Ledger) {
    let wanted: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| (*s).to_owned()).collect()
    };
    // End-to-end times and rates are reported at the reference host's
    // speed (see `measure::Calibration`); the table also shows the raw
    // medians.
    let speed = (!ledger.calibration_s.is_empty())
        .then(|| measure::REFERENCE_S / measure::median(&ledger.calibration_s));
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for name in wanted {
        match ledger.samples.get(&name) {
            Some((xs, unit)) if xs.iter().all(|x| x.is_finite()) => {
                let raw = measure::median(xs);
                let value = match (speed, name.as_str()) {
                    (Some(s), "wall_s" | "setup_s") => raw * s,
                    (Some(s), "sim_maccess_per_s" | "sim_minstr_per_s") => raw / s,
                    _ => raw,
                };
                metrics.push((name, value, raw, *unit, xs.len()));
            }
            _ => missing.push(name),
        }
    }
    for name in missing {
        ledger.check(false, || format!("metric {name} was not measured"));
    }
    let fail_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    if let Some(s) = speed {
        println!(
            "perfbench {:<34} {s:>16.6} {:<9} calibration median {:.6} s over {} rounds",
            "host_speed",
            "ratio",
            measure::median(&ledger.calibration_s),
            ledger.calibration_s.len()
        );
    }
    for (name, value, raw, unit, n) in &metrics {
        println!("perfbench {name:<34} {value:>16.6} {unit:<9} median of {n}, raw {raw:.6}");
    }
    println!(
        "perfbench {:<34} {fail_ratio:>16.6} {:<9} {} failed of {} attempted",
        "fail_ratio", "ratio", ledger.failed, ledger.attempted
    );

    let metric_json = metrics
        .iter()
        .map(|(name, value, _, unit, _)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let host_json = host
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{host_json}}}, \
         \"host_speed\": {}, \"fail_ratio\": {fail_ratio}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{metric_json}}}}}\n",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        speed.map_or_else(|| "null".to_owned(), |s| s.to_string()),
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
    );
    let dir = args.work.join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &result)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metric_json}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
