//! Section VI-G extension — group-aware allocation placement: the OS
//! mirrors the per-group ABV state and avoids consuming a group's last
//! free segment, raising Chameleon-Opt's cache-mode coverage beyond what
//! scattered allocation gives.
//!
//! The paper leaves this as future work; this runner quantifies it.

use chameleon::{Architecture, ScaledParams, System};
use chameleon_bench::{banner, geomean, pct, Harness, ScaleError};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let apps = ["bwaves", "stream", "lbm", "hpccg", "mcf", "leslie3d"];

    banner("Section VI-G extension: group-aware allocation placement");
    println!(
        "{:<11} {:>14} {:>14} {:>10} {:>10}",
        "WL", "cache% (off)", "cache% (on)", "IPC (off)", "IPC (on)"
    );
    let mut rows = Vec::new();
    let (mut ipc_off, mut ipc_on) = (Vec::new(), Vec::new());
    for app in apps {
        let mut result = Vec::new();
        for enabled in [false, true] {
            let mut params: ScaledParams = harness.params().clone();
            params.group_aware_placement = enabled;
            let mut s = System::new(Architecture::ChameleonOpt, &params);
            let r = s.run_paper_protocol(app, 42).expect("Table II app");
            result.push(r);
        }
        let (off, on) = (&result[0], &result[1]);
        ipc_off.push(off.run.geomean_ipc());
        ipc_on.push(on.run.geomean_ipc());
        println!(
            "{:<11} {:>14} {:>14} {:>10.3} {:>10.3}",
            app,
            pct(off.mode.cache_fraction()),
            pct(on.mode.cache_fraction()),
            off.run.geomean_ipc(),
            on.run.geomean_ipc(),
        );
        rows.push(serde_json::json!({
            "app": app,
            "cache_fraction_off": off.mode.cache_fraction(),
            "cache_fraction_on": on.mode.cache_fraction(),
            "ipc_off": off.run.geomean_ipc(),
            "ipc_on": on.run.geomean_ipc(),
        }));
    }
    println!(
        "\nGeoMean IPC: off {:.3} -> on {:.3} ({:+.1}%)",
        geomean(&ipc_off),
        geomean(&ipc_on),
        (geomean(&ipc_on) / geomean(&ipc_off) - 1.0) * 100.0
    );
    harness.save_json("ext_rebalancer.json", &rows);
    Ok(())
}
