//! Figure 22 — comparison with Polymorphic Memory (Chung et al.): free
//! stacked space used as a cache, but no hot-data swapping for allocated
//! pages.
//!
//! Paper: Chameleon +10.5% and Chameleon-Opt +15.8% over Polymorphic
//! Memory.

use chameleon::Architecture;
use chameleon_bench::{banner, geomean, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let apps = Harness::app_names();
    let archs = vec![
        Architecture::FlatSmall,
        Architecture::FlatLarge,
        Architecture::Polymorphic,
        Architecture::Chameleon,
        Architecture::ChameleonOpt,
    ];
    let reports = harness.run_matrix(&archs, &apps);

    banner("Figure 22: Polymorphic Memory comparison (normalised IPC)");
    print!("{:<11}", "WL");
    for a in &archs {
        print!(" {:>13}", shorten(&a.label()));
    }
    println!();
    let n = archs.len();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (ai, app) in apps.iter().enumerate() {
        let base = reports[ai * n].run.geomean_ipc();
        print!("{app:<11}");
        for x in 0..n {
            let ipc = reports[ai * n + x].run.geomean_ipc();
            series[x].push(ipc);
            print!(" {:>13.2}", ipc / base);
        }
        println!();
    }
    let g: Vec<f64> = series.iter().map(|v| geomean(v)).collect();
    print!("{:<11}", "GeoMean");
    for x in 0..n {
        print!(" {:>13.2}", g[x] / g[0]);
    }
    println!();
    println!(
        "\nChameleon vs Polymorphic: {:+.1}% (paper +10.5%) | \
         Chameleon-Opt vs Polymorphic: {:+.1}% (paper +15.8%)",
        (g[3] / g[2] - 1.0) * 100.0,
        (g[4] / g[2] - 1.0) * 100.0
    );

    let rows: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            let ipcs: Vec<f64> = (0..n)
                .map(|x| reports[ai * n + x].run.geomean_ipc())
                .collect();
            let labels: Vec<String> = archs.iter().map(|a| a.label()).collect();
            serde_json::json!({ "app": app, "archs": labels, "ipc": ipcs })
        })
        .collect();
    harness.save_json("fig22_polymorphic.json", &rows);
    Ok(())
}

fn shorten(label: &str) -> String {
    label
        .replace(" (no stacked DRAM)", "")
        .chars()
        .take(13)
        .collect()
}
