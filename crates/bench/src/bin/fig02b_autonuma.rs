//! Figure 2b — stacked DRAM hit rate under Linux AutoNUMA for thresholds
//! 70%, 80% and 90%.
//!
//! Paper: higher thresholds migrate more eagerly; average hit rate 64.4%
//! at the 90% threshold, with Cloverleaf the low outlier.

use chameleon::Architecture;
use chameleon_bench::{banner, pct, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let apps = Harness::app_names();
    let archs = [
        Architecture::AutoNuma { threshold_pct: 70 },
        Architecture::AutoNuma { threshold_pct: 80 },
        Architecture::AutoNuma { threshold_pct: 90 },
    ];
    let reports = harness.run_matrix(&archs, &apps);

    banner("Figure 2b: stacked DRAM hit rate, AutoNUMA");
    println!("{:<11} {:>8} {:>8} {:>8}", "WL", "70%", "80%", "90%");
    let mut sums = [0.0f64; 3];
    for (a, app) in apps.iter().enumerate() {
        print!("{app:<11}");
        for t in 0..3 {
            let hr = reports[a * 3 + t].stacked_hit_rate;
            sums[t] += hr;
            print!(" {:>8}", pct(hr));
        }
        println!();
    }
    print!("{:<11}", "Average");
    for s in sums {
        print!(" {:>8}", pct(s / apps.len() as f64));
    }
    println!("\n\npaper: 90% threshold averages 64.4%; higher threshold => higher hit rate");

    let rows: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            serde_json::json!({
                "app": app,
                "hit_70": reports[a * 3].stacked_hit_rate,
                "hit_80": reports[a * 3 + 1].stacked_hit_rate,
                "hit_90": reports[a * 3 + 2].stacked_hit_rate,
            })
        })
        .collect();
    harness.save_json("fig02b_autonuma.json", &rows);
    Ok(())
}
