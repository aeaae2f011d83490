//! Figure 18 — normalised IPC of every architecture across the Table II
//! workloads, normalised to the small flat baseline.
//!
//! Paper: PoM +85.2%/+36.5% over the 20GB/24GB baselines; Chameleon
//! +6.3% and Chameleon-Opt +11.6% over PoM; +18.5%/+24.2% over Alloy.

use chameleon_bench::{banner, geomean, EpochTimeline, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let sweep = harness.main_sweep();
    banner("Figure 18: normalised IPC (baseline_small = 1.0)");
    print!("{:<11}", "WL");
    for arch in &sweep.archs {
        print!(" {:>13}", shorten(arch));
    }
    println!();

    let n_arch = sweep.archs.len();
    let mut per_arch_ipc: Vec<Vec<f64>> = vec![Vec::new(); n_arch];
    for (a, app) in sweep.apps.iter().enumerate() {
        let base = sweep.cell(a, 0).run.geomean_ipc();
        print!("{app:<11}");
        for (x, col) in per_arch_ipc.iter_mut().enumerate() {
            let ipc = sweep.cell(a, x).run.geomean_ipc();
            col.push(ipc);
            print!(" {:>13.2}", ipc / base);
        }
        println!();
    }
    let g: Vec<f64> = per_arch_ipc.iter().map(|v| geomean(v)).collect();
    print!("{:<11}", "GeoMean");
    for x in 0..n_arch {
        print!(" {:>13.2}", g[x] / g[0]);
    }
    println!();

    let label = |s: &str| {
        sweep
            .archs
            .iter()
            .position(|a| a.contains(s))
            .expect("arch")
    };
    let (f20, f24) = (0, 1);
    let (alloy, pom) = (label("Alloy"), label("PoM"));
    let (cham, opt) = (
        sweep
            .archs
            .iter()
            .position(|a| a == "Chameleon")
            .expect("arch"),
        label("Chameleon-Opt"),
    );
    println!("\nGeoMean improvements (ours vs paper):");
    println!(
        "  PoM  vs small/large baseline : {:+.1}% / {:+.1}%   (paper +85.2% / +36.5%)",
        (g[pom] / g[f20] - 1.0) * 100.0,
        (g[pom] / g[f24] - 1.0) * 100.0
    );
    println!(
        "  Cham vs small/large baseline : {:+.1}% / {:+.1}%   (paper +96.8% / +45.1%)",
        (g[cham] / g[f20] - 1.0) * 100.0,
        (g[cham] / g[f24] - 1.0) * 100.0
    );
    println!(
        "  Opt  vs small/large baseline : {:+.1}% / {:+.1}%   (paper +106.3% / +52.0%)",
        (g[opt] / g[f20] - 1.0) * 100.0,
        (g[opt] / g[f24] - 1.0) * 100.0
    );
    println!(
        "  Cham vs PoM / Alloy          : {:+.1}% / {:+.1}%   (paper +6.3% / +18.5%)",
        (g[cham] / g[pom] - 1.0) * 100.0,
        (g[cham] / g[alloy] - 1.0) * 100.0
    );
    println!(
        "  Opt  vs PoM / Alloy          : {:+.1}% / {:+.1}%   (paper +11.6% / +24.2%)",
        (g[opt] / g[pom] - 1.0) * 100.0,
        (g[opt] / g[alloy] - 1.0) * 100.0
    );

    let rows: Vec<_> = sweep
        .apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            let ipcs: Vec<f64> = (0..n_arch)
                .map(|x| sweep.cell(a, x).run.geomean_ipc())
                .collect();
            serde_json::json!({ "app": app, "archs": sweep.archs, "ipc": ipcs })
        })
        .collect();
    harness.save_json("fig18_ipc.json", &rows);

    // Per-epoch timelines for the reconfigurable architecture, showing
    // how swaps and the cache/PoM mode mix evolve over the run.
    let timelines: Vec<EpochTimeline> = sweep
        .arch_column(opt)
        .into_iter()
        .map(EpochTimeline::from_report)
        .collect();
    harness.save_json("fig18_ipc_timeline.json", &timelines);
    Ok(())
}

fn shorten(label: &str) -> String {
    label
        .replace(" (no stacked DRAM)", "")
        .chars()
        .take(13)
        .collect()
}
