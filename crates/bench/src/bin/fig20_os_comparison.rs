//! Figure 20 — Chameleon vs the OS-managed solutions: the NUMA-aware
//! first-touch allocator and AutoNUMA at 70/80/90% thresholds.
//!
//! Paper: Chameleon beats first-touch by 28.7% and AutoNUMA by 19.1%;
//! Chameleon-Opt by 34.8% and 24.9%.

use chameleon::Architecture;
use chameleon_bench::{banner, geomean, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let apps = Harness::app_names();
    let archs = vec![
        Architecture::FlatSmall,
        Architecture::FlatLarge,
        Architecture::NumaFirstTouch,
        Architecture::AutoNuma { threshold_pct: 70 },
        Architecture::AutoNuma { threshold_pct: 80 },
        Architecture::AutoNuma { threshold_pct: 90 },
        Architecture::Chameleon,
        Architecture::ChameleonOpt,
    ];
    let reports = harness.run_matrix(&archs, &apps);

    banner("Figure 20: normalised IPC vs OS-managed solutions");
    print!("{:<11}", "WL");
    for a in &archs {
        print!(" {:>12}", shorten(&a.label()));
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
            print!(" {:>12.2}", ipc / base);
        }
        println!();
    }
    let g: Vec<f64> = series.iter().map(|v| geomean(v)).collect();
    print!("{:<11}", "GeoMean");
    for x in 0..n {
        print!(" {:>12.2}", g[x] / g[0]);
    }
    println!();

    let best_auto = g[3..6].iter().cloned().fold(f64::MIN, f64::max);
    println!("\nGeoMean improvements (ours vs paper):");
    println!(
        "  Chameleon vs first-touch / best AutoNUMA : {:+.1}% / {:+.1}%  (paper +28.7% / +19.1%)",
        (g[6] / g[2] - 1.0) * 100.0,
        (g[6] / best_auto - 1.0) * 100.0
    );
    println!(
        "  Cham-Opt  vs first-touch / best AutoNUMA : {:+.1}% / {:+.1}%  (paper +34.8% / +24.9%)",
        (g[7] / g[2] - 1.0) * 100.0,
        (g[7] / best_auto - 1.0) * 100.0
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
    harness.save_json("fig20_os_comparison.json", &rows);
    Ok(())
}

fn shorten(label: &str) -> String {
    label
        .replace(" (no stacked DRAM)", "")
        .chars()
        .take(12)
        .collect()
}
