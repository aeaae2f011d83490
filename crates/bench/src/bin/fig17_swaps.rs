//! Figure 17 — segment swaps between the memories, normalised to PoM.
//! Cache-mode dirty evictions count as swaps (they consume both
//! memories' bandwidth — Section VI-B).
//!
//! Paper: Chameleon reduces swaps by 14.4% and Chameleon-Opt by 43.1% on
//! average.

use chameleon_bench::{banner, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let sweep = harness.main_sweep();
    let pom = sweep.archs.iter().position(|a| a == "PoM").expect("arch");
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

    banner("Figure 17: segment swaps (normalised to PoM)");
    println!(
        "{:<11} {:>8} {:>10} {:>14}",
        "WL", "PoM", "Chameleon", "Chameleon-Opt"
    );
    let (mut s1, mut s2) = (0.0, 0.0);
    let mut counted = 0usize;
    for (a, app) in sweep.apps.iter().enumerate() {
        let base = sweep.cell(a, pom).effective_swaps;
        if base == 0 {
            println!("{app:<11} {:>8} {:>10} {:>14}", "-", "-", "-");
            continue;
        }
        let r1 = sweep.cell(a, cham).effective_swaps as f64 / base as f64;
        let r2 = sweep.cell(a, opt).effective_swaps as f64 / base as f64;
        s1 += r1;
        s2 += r2;
        counted += 1;
        println!("{app:<11} {:>8.2} {:>10.2} {:>14.2}", 1.0, r1, r2);
    }
    let n = counted as f64;
    println!(
        "{:<11} {:>8.2} {:>10.2} {:>14.2}",
        "Average",
        1.0,
        s1 / n,
        s2 / n
    );
    println!("\npaper averages: Chameleon 0.86 (-14.4%) | Chameleon-Opt 0.57 (-43.1%)");

    let rows: Vec<_> = sweep
        .apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            serde_json::json!({
                "app": app,
                "pom_swaps": sweep.cell(a, pom).effective_swaps,
                "chameleon_swaps": sweep.cell(a, cham).effective_swaps,
                "chameleon_opt_swaps": sweep.cell(a, opt).effective_swaps,
            })
        })
        .collect();
    harness.save_json("fig17_swaps.json", &rows);
    Ok(())
}
