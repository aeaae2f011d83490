//! Figure 2c — Cloverleaf AutoNUMA timeline at the 90% threshold: pages
//! migrated per epoch (primary axis) and stacked hit rate (secondary
//! axis).
//!
//! Paper shape: migrations pour pages into the fast node and the hit rate
//! climbs (to ~77% at epoch 81); once the node fills, migration fails
//! with -ENOMEM, the workload's phases move on, and the hit rate decays
//! (to ~31%).

use chameleon::{Architecture, ScaledParams, System};
use chameleon_bench::{autonuma_timeline, banner, pct, Harness, ScaleError};
use chameleon_workloads::AppSpec;

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let mut params: ScaledParams = harness.params().clone();
    // One long measured run (epoch dynamics are the point; no warm-up).
    params.instructions_per_core *= 2;

    let mut system = System::new(Architecture::AutoNuma { threshold_pct: 90 }, &params);
    system.set_epoch_accesses(10_000);
    // Phase churn makes the post-ENOMEM decay visible (the paper's
    // cloverleaf moves through program phases).
    let spec = AppSpec::by_name("cloverleaf")
        .expect("cloverleaf in Table II")
        .scaled(params.footprint_scale)
        .with_phases(40_000);
    let streams = system.spawn_rate_workload_spec(&spec, params.instructions_per_core, 42);
    system.prefault_all().expect("prefault");
    let report = system.run(streams);

    banner("Figure 2c: Cloverleaf AutoNUMA timeline (90% threshold)");
    println!(
        "{:>6} {:>10} {:>8} {:>8}",
        "epoch", "migrated", "enomem", "hit"
    );
    let epochs = autonuma_timeline(&report, &params);
    for (i, e) in epochs.iter().enumerate() {
        println!(
            "{:>6} {:>10} {:>8} {:>8}",
            i,
            e.migrated,
            e.enomem,
            pct(e.stacked_hit_rate)
        );
    }
    let peak = epochs
        .iter()
        .map(|e| e.stacked_hit_rate)
        .fold(0.0f64, f64::max);
    let last = epochs.last().map(|e| e.stacked_hit_rate).unwrap_or(0.0);
    println!(
        "\npeak hit rate {} -> final {} | cumulative {} | total run hit rate {}",
        pct(peak),
        pct(last),
        pct(epochs.iter().map(|e| e.stacked_hit_rate).sum::<f64>() / epochs.len().max(1) as f64),
        pct(report.stacked_hit_rate)
    );
    println!("paper: climbs to 77.1% at epoch 81, decays to 30.7% once migrations fail");

    harness.save_json("fig02c_autonuma_timeline.json", &epochs);
    Ok(())
}
