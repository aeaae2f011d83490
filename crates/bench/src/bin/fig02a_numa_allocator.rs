//! Figure 2a — stacked DRAM hit rate under the NUMA-aware first-touch
//! allocator (OS-managed, no hardware remapping).
//!
//! Paper: average 18.5% for high-footprint workloads — first-touch fills
//! the small fast node once and most traffic lands off-chip.

use chameleon::Architecture;
use chameleon_bench::{banner, pct, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let apps = Harness::app_names();
    let reports = harness.run_matrix(&[Architecture::NumaFirstTouch], &apps);

    banner("Figure 2a: stacked DRAM hit rate, NUMA-aware first-touch allocator");
    println!("{:<11} {:>8}", "WL", "hit");
    let mut sum = 0.0;
    for (app, r) in apps.iter().zip(&reports) {
        sum += r.stacked_hit_rate;
        println!("{app:<11} {:>8}", pct(r.stacked_hit_rate));
    }
    println!("{:<11} {:>8}", "Average", pct(sum / apps.len() as f64));
    println!("\npaper average: 18.5%");

    let rows: Vec<_> = apps
        .iter()
        .zip(&reports)
        .map(|(app, r)| serde_json::json!({ "app": app, "hit_rate": r.stacked_hit_rate }))
        .collect();
    harness.save_json("fig02a_numa_allocator.json", &rows);
    Ok(())
}
