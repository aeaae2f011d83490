//! Figure 15 — stacked DRAM hit rate for Alloy-Cache, PoM, Chameleon and
//! Chameleon-Opt across the Table II workloads.
//!
//! Paper: Alloy 62.4%, PoM 81%, Chameleon 84.6%, Chameleon-Opt 89.4%
//! (averages).

use chameleon_bench::{banner, pct, EpochTimeline, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let sweep = harness.main_sweep();
    let cols = ["Alloy-Cache", "PoM", "Chameleon", "Chameleon-Opt"];
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| sweep.archs.iter().position(|a| a == c).expect("arch"))
        .collect();

    banner("Figure 15: stacked DRAM hit rate");
    println!(
        "{:<11} {:>12} {:>8} {:>10} {:>14}",
        "WL", "Alloy-Cache", "PoM", "Chameleon", "Chameleon-Opt"
    );
    let mut sums = vec![0.0; cols.len()];
    for (a, app) in sweep.apps.iter().enumerate() {
        print!("{app:<11}");
        for (c, &xi) in idx.iter().enumerate() {
            let hr = sweep.cell(a, xi).stacked_hit_rate;
            sums[c] += hr;
            print!(" {:>11}", pct(hr));
        }
        println!();
    }
    print!("{:<11}", "Average");
    let n = sweep.apps.len() as f64;
    for s in &sums {
        print!(" {:>11}", pct(s / n));
    }
    println!();
    println!("\npaper averages: Alloy 62.4% | PoM 81.0% | Chameleon 84.6% | Chameleon-Opt 89.4%");

    let rows: Vec<_> = sweep
        .apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            serde_json::json!({
                "app": app,
                "alloy": sweep.cell(a, idx[0]).stacked_hit_rate,
                "pom": sweep.cell(a, idx[1]).stacked_hit_rate,
                "chameleon": sweep.cell(a, idx[2]).stacked_hit_rate,
                "chameleon_opt": sweep.cell(a, idx[3]).stacked_hit_rate,
            })
        })
        .collect();
    harness.save_json("fig15_hit_rate.json", &rows);

    // Per-epoch hit-rate timelines for the same four columns, from the
    // metrics registry each run carries.
    let timelines: Vec<EpochTimeline> = idx
        .iter()
        .flat_map(|&xi| {
            sweep
                .arch_column(xi)
                .into_iter()
                .map(EpochTimeline::from_report)
        })
        .collect();
    harness.save_json("fig15_hit_rate_timeline.json", &timelines);
    Ok(())
}
