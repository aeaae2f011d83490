//! Table II — workload characteristics: the paper's LLC-MPKI and memory
//! footprint targets next to the values measured from our synthetic
//! generators (via the PoM column of the main sweep).

use chameleon_bench::{banner, Harness, ScaleError};
use chameleon_workloads::AppSpec;

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let sweep = harness.main_sweep();
    let pom_idx = sweep
        .archs
        .iter()
        .position(|a| a == "PoM")
        .expect("PoM in sweep");

    banner("Table II: workload characteristics (paper target vs measured)");
    println!(
        "{:<11} {:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "WL", "suite", "paper MPKI", "ours MPKI", "paper MF", "ours MF"
    );
    let specs = AppSpec::table2();
    let scale = harness.params().footprint_scale;
    for (i, app) in sweep.apps.iter().enumerate() {
        let spec = specs.iter().find(|s| &s.name == app).expect("table2 app");
        let r = sweep.cell(i, pom_idx);
        let measured_mf = spec.scaled(scale).workload_footprint.bytes() * scale;
        println!(
            "{:<11} {:>6} | {:>12.2} {:>12.2} | {:>9.2}GB {:>9.2}GB",
            app,
            format!("{:?}", spec.suite),
            spec.llc_mpki,
            r.llc_mpki,
            spec.workload_footprint.bytes() as f64 / (1u64 << 30) as f64,
            measured_mf as f64 / (1u64 << 30) as f64,
        );
    }
    println!(
        "\n(MPKI is measured through the scaled cache hierarchy; footprints are \
         allocated at 1/{scale} scale and shown re-multiplied.)"
    );

    let rows: Vec<_> = sweep
        .apps
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let spec = specs.iter().find(|s| &s.name == app).expect("app");
            serde_json::json!({
                "app": app,
                "paper_mpki": spec.llc_mpki,
                "measured_mpki": sweep.cell(i, pom_idx).llc_mpki,
                "paper_footprint_gb": spec.workload_footprint.bytes() as f64 / (1u64 << 30) as f64,
            })
        })
        .collect();
    harness.save_json("table2_workloads.json", &rows);
    Ok(())
}
