//! Figure 5 — page faults and CPU utilisation as OS-visible capacity
//! grows from 16GB to 28GB (scaled 1/64).
//!
//! Paper: fault counts fall and CPU utilisation climbs towards 100% as
//! the footprint fits; under-capacity machines spend their time in the
//! uninterruptible swap state.

use chameleon::Architecture;
use chameleon_bench::{banner, pct, Harness, ScaleError};
use chameleon_simkit::mem::ByteSize;

fn main() -> Result<(), ScaleError> {
    let mut harness = Harness::new()?;
    let apps = Harness::app_names();
    let scale = harness.params().footprint_scale;
    let caps: Vec<u64> = vec![16, 18, 20, 22, 24, 26, 28];

    banner("Figure 5: page faults and CPU utilisation vs capacity");
    let mut rows = Vec::new();
    println!(
        "{:<11} {:>5}  {:>12} {:>12}",
        "WL", "cap", "major faults", "CPU util"
    );
    for app in &apps {
        for &cap_gb in &caps {
            let mut params = harness.params().clone();
            params.hma.offchip.capacity = ByteSize::bytes_exact((cap_gb << 30) / scale);
            harness.set_params(params);
            let r = harness.run_cell(Architecture::FlatSmall, app);
            println!(
                "{:<11} {:>4}G  {:>12} {:>12}",
                app,
                cap_gb,
                r.major_faults,
                pct(r.run.mean_running_utilization())
            );
            rows.push(serde_json::json!({
                "app": app,
                "capacity_gb": cap_gb,
                "major_faults": r.major_faults,
                "minor_faults": r.minor_faults,
                "utilization": r.run.mean_running_utilization(),
            }));
        }
    }
    println!(
        "\npaper shape: faults monotonically fall with capacity; utilisation\n\
         rises to ~100% once the workload footprint fits"
    );
    harness.save_json("fig05_faults_utilization.json", &rows);
    Ok(())
}
