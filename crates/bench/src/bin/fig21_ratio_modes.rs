//! Figure 21 — Chameleon-Opt cache/PoM mode distribution at 1:3 and 1:7
//! stacked:off-chip capacity ratios (constant total capacity).
//!
//! Paper: cache-mode groups average 33% at 1:3 and 48.7% at 1:7 (vs
//! 40.6% at the default 1:5): more segments per group means a higher
//! chance of at least one free segment.

use chameleon::{Architecture, ScaledParams};
use chameleon_bench::{banner, pct, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let mut harness = Harness::new()?;
    let apps = Harness::app_names();

    banner("Figure 21: Chameleon-Opt cache-mode fraction vs capacity ratio");
    println!("{:<11} {:>8} {:>8} {:>8}", "WL", "1:3", "1:5", "1:7");
    let mut table: Vec<Vec<f64>> = Vec::new();
    let mut cols = Vec::new();
    for ratio in [3u64, 5, 7] {
        let params = ScaledParams::laptop()
            .with_ratio(ratio)
            .expect("the laptop total splits at this ratio");
        let mut p = params;
        p.instructions_per_core = harness.params().instructions_per_core;
        harness.set_params(p);
        let reports = harness.run_matrix(&[Architecture::ChameleonOpt], &apps);
        cols.push(
            reports
                .iter()
                .map(|r| r.mode.cache_fraction())
                .collect::<Vec<_>>(),
        );
    }
    let mut sums = [0.0f64; 3];
    for (a, app) in apps.iter().enumerate() {
        print!("{app:<11}");
        let mut row = Vec::new();
        for (c, col) in cols.iter().enumerate() {
            sums[c] += col[a];
            row.push(col[a]);
            print!(" {:>8}", pct(col[a]));
        }
        table.push(row);
        println!();
    }
    print!("{:<11}", "Average");
    for s in sums {
        print!(" {:>8}", pct(s / apps.len() as f64));
    }
    println!("\n\npaper averages: 33% (1:3) | 40.6% (1:5) | 48.7% (1:7)");

    harness.save_json(
        "fig21_ratio_modes.json",
        &serde_json::json!({ "apps": apps, "ratios": [3, 5, 7], "cache_fraction": table }),
    );
    Ok(())
}
