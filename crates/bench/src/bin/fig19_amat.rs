//! Figure 19 — average memory access latency (CPU cycles) for PoM,
//! Chameleon and Chameleon-Opt.
//!
//! Paper: PoM highest (~700 cycles geomean), Chameleon lower,
//! Chameleon-Opt lowest.

use chameleon_bench::{banner, geomean, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let sweep = harness.main_sweep();
    let cols = ["PoM", "Chameleon", "Chameleon-Opt"];
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| sweep.archs.iter().position(|a| a == c).expect("arch"))
        .collect();

    banner("Figure 19: average memory access latency (CPU cycles)");
    println!(
        "{:<11} {:>8} {:>10} {:>14}",
        "WL", "PoM", "Chameleon", "Chameleon-Opt"
    );
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
    for (a, app) in sweep.apps.iter().enumerate() {
        print!("{app:<11}");
        for (c, &xi) in idx.iter().enumerate() {
            let amat = sweep.cell(a, xi).amat;
            series[c].push(amat.max(1.0));
            print!(" {:>10.0}", amat);
        }
        println!();
    }
    print!("{:<11}", "GeoMean");
    for s in &series {
        print!(" {:>10.0}", geomean(s));
    }
    println!();
    println!("\npaper shape: PoM > Chameleon > Chameleon-Opt, around 600-700 cycles");

    let rows: Vec<_> = sweep
        .apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            serde_json::json!({
                "app": app,
                "pom": sweep.cell(a, idx[0]).amat,
                "chameleon": sweep.cell(a, idx[1]).amat,
                "chameleon_opt": sweep.cell(a, idx[2]).amat,
            })
        })
        .collect();
    harness.save_json("fig19_amat.json", &rows);
    Ok(())
}
