//! Figure 16 — fraction of segment groups operating in cache vs PoM mode
//! for Chameleon and Chameleon-Opt.
//!
//! Paper: on average 9.2% of groups cache in Chameleon and 40.6% in
//! Chameleon-Opt (the workloads allocate up front, so the distribution is
//! static during the measured snippet — exactly as the paper observes).

use chameleon_bench::{banner, pct, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let sweep = harness.main_sweep();
    let cham = sweep
        .archs
        .iter()
        .position(|a| a == "Chameleon")
        .expect("arch");
    let opt = sweep
        .archs
        .iter()
        .position(|a| a == "Chameleon-Opt")
        .expect("arch");

    banner("Figure 16: cache-mode segment-group fraction");
    println!("{:<11} {:>10} {:>14}", "WL", "Chameleon", "Chameleon-Opt");
    let (mut s1, mut s2) = (0.0, 0.0);
    for (a, app) in sweep.apps.iter().enumerate() {
        let f1 = sweep.cell(a, cham).mode.cache_fraction();
        let f2 = sweep.cell(a, opt).mode.cache_fraction();
        s1 += f1;
        s2 += f2;
        println!("{app:<11} {:>10} {:>14}", pct(f1), pct(f2));
    }
    let n = sweep.apps.len() as f64;
    println!("{:<11} {:>10} {:>14}", "Average", pct(s1 / n), pct(s2 / n));
    println!("\npaper averages: Chameleon 9.2% | Chameleon-Opt 40.6%");

    let rows: Vec<_> = sweep
        .apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            serde_json::json!({
                "app": app,
                "chameleon_cache_fraction": sweep.cell(a, cham).mode.cache_fraction(),
                "chameleon_opt_cache_fraction": sweep.cell(a, opt).mode.cache_fraction(),
            })
        })
        .collect();
    harness.save_json("fig16_mode_distribution.json", &rows);
    Ok(())
}
