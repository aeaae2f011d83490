//! Figure 23 — normalised IPC at 1:3 and 1:7 stacked:off-chip ratios for
//! the baselines, PoM, Chameleon and Chameleon-Opt.
//!
//! Paper: at 1:3 Chameleon/Chameleon-Opt beat PoM by 5.9%/7.6%; at 1:7
//! by 8.1%/12.4% (the smaller the stacked share, the more free-space
//! caching matters).

use chameleon::{Architecture, ScaledParams};
use chameleon_bench::{banner, geomean, Harness};

fn main() {
    let mut harness = Harness::new();
    let apps = Harness::app_names();
    let archs = vec![
        Architecture::FlatSmall,
        Architecture::FlatLarge,
        Architecture::Pom,
        Architecture::Chameleon,
        Architecture::ChameleonOpt,
    ];

    banner("Figure 23: normalised IPC at 1:3 and 1:7 capacity ratios");
    let mut dump = Vec::new();
    for ratio in [3u64, 7] {
        let mut params = ScaledParams::laptop()
            .with_ratio(ratio)
            .expect("the laptop total splits at this ratio");
        params.instructions_per_core = harness.params().instructions_per_core;
        harness.set_params(params);
        let reports = harness.run_matrix(&archs, &apps);
        let n = archs.len();
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); n];
        for ai in 0..apps.len() {
            for x in 0..n {
                series[x].push(reports[ai * n + x].run.geomean_ipc());
            }
        }
        let g: Vec<f64> = series.iter().map(|v| geomean(v)).collect();
        println!("\nratio 1:{ratio}");
        for (x, arch) in archs.iter().enumerate() {
            println!("  {:<40} {:>6.2}", arch.label(), g[x] / g[0]);
        }
        println!(
            "  Chameleon vs PoM {:+.1}% | Chameleon-Opt vs PoM {:+.1}%   \
             (paper 1:3 +5.9%/+7.6%, 1:7 +8.1%/+12.4%)",
            (g[3] / g[2] - 1.0) * 100.0,
            (g[4] / g[2] - 1.0) * 100.0
        );
        dump.push(serde_json::json!({
            "ratio": ratio,
            "archs": archs.iter().map(|a| a.label()).collect::<Vec<_>>(),
            "geomean_ipc": g,
        }));
    }
    harness.save_json("fig23_ratio_ipc.json", &dump);
}
