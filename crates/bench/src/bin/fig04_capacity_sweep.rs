//! Figure 4 — impact of OS-visible memory capacity on performance:
//! execution-time improvement relative to a 16GB machine as capacity
//! grows 18GB → 28GB (scaled 1/64: 256MB → 448MB).
//!
//! Paper: improvements grow from ~29.5% (18GB) to ~75.4% (24GB) and
//! saturate once the footprint fits.

use chameleon::Architecture;
use chameleon_bench::{banner, geomean, Harness, ScaleError};
use chameleon_simkit::mem::ByteSize;

fn capacities_gb() -> Vec<u64> {
    vec![16, 18, 20, 22, 24, 26, 28]
}

fn main() -> Result<(), ScaleError> {
    let mut harness = Harness::new()?;
    let apps = Harness::app_names();
    let scale = harness.params().footprint_scale;

    banner("Figure 4: execution-time improvement vs 16GB capacity");
    // makespans[app][cap]
    let mut makespans: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    for cap_gb in capacities_gb() {
        let mut params = harness.params().clone();
        params.hma.offchip.capacity = ByteSize::bytes_exact((cap_gb << 30) / scale);
        harness.set_params(params);
        let reports = harness.run_matrix(&[Architecture::FlatSmall], &apps);
        for (a, r) in reports.iter().enumerate() {
            makespans[a].push(r.run.makespan() as f64);
        }
    }

    print!("{:<11}", "WL");
    for c in capacities_gb().iter().skip(1) {
        print!(" {:>7}", format!("{c}GB"));
    }
    println!("   (improvement vs 16GB)");
    let caps = capacities_gb();
    let mut per_cap_imp: Vec<Vec<f64>> = vec![Vec::new(); caps.len() - 1];
    for (a, app) in apps.iter().enumerate() {
        print!("{app:<11}");
        let t16 = makespans[a][0];
        for (ci, _) in caps.iter().enumerate().skip(1) {
            let imp = (t16 - makespans[a][ci]) * 100.0 / t16;
            per_cap_imp[ci - 1].push(imp);
            print!(" {:>6.1}%", imp);
        }
        println!();
    }
    print!("{:<11}", "Average");
    for v in &per_cap_imp {
        print!(" {:>6.1}%", v.iter().sum::<f64>() / v.len() as f64);
    }
    println!();
    println!("\npaper: average improves 29.5% (18GB) -> 75.4% (24GB), then saturates");

    // Keep a geomean-of-exec-time series too (Equation 1 of the paper).
    let geo_series: Vec<f64> = (0..caps.len())
        .map(|ci| geomean(&makespans.iter().map(|m| m[ci]).collect::<Vec<_>>()))
        .collect();
    harness.save_json(
        "fig04_capacity_sweep.json",
        &serde_json::json!({
            "capacities_gb": caps,
            "apps": apps,
            "makespans": makespans,
            "geomean_exec_time": geo_series,
        }),
    );
    Ok(())
}
