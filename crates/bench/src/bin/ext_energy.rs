//! Extension — DRAM energy comparison across memory organisations.
//!
//! Section I motivates PoM partly by *cost and power*. The DRAM models
//! count activations, read/write bursts and refreshes; this runner turns
//! them into energy (HBM-class stacked vs DDR-class off-chip parameters)
//! and compares the designs on picojoules per retired instruction —
//! swap-heavy policies pay for their bandwidth in energy too.

use chameleon::{Architecture, ScaledParams, System};
use chameleon_bench::{banner, Harness, ScaleError};
use chameleon_dram::{EnergyCounter, EnergyParams};

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let apps = ["bwaves", "stream", "lbm", "hpccg"];
    let archs = [
        Architecture::FlatLarge,
        Architecture::Alloy,
        Architecture::Pom,
        Architecture::Chameleon,
        Architecture::ChameleonOpt,
    ];

    banner("Extension: DRAM energy per kilo-instruction");
    println!(
        "{:<11} {:<14} {:>12} {:>12} {:>14}",
        "WL", "arch", "dyn mJ(stk)", "dyn mJ(off)", "pJ/instr"
    );
    let mut rows = Vec::new();
    for app in apps {
        for arch in archs {
            let params: ScaledParams = harness.params().clone();
            let mut s = System::new(arch, &params);
            let r = s.run_paper_protocol(app, 42).expect("Table II app");
            let d = s.policy().devices();
            let stacked_mj = d
                .stacked
                .energy()
                .dynamic_energy_mj(&EnergyParams::stacked());
            let offchip_mj = d
                .offchip
                .energy()
                .dynamic_energy_mj(&EnergyParams::offchip());
            let makespan = r.run.makespan();
            let background =
                EnergyCounter::background_energy_mj(&EnergyParams::stacked(), makespan, 3600.0)
                    + EnergyCounter::background_energy_mj(
                        &EnergyParams::offchip(),
                        makespan,
                        3600.0,
                    );
            let total_mj = stacked_mj + offchip_mj + background;
            let pj_per_instr = total_mj * 1.0e9 / r.run.total_instructions() as f64;
            println!(
                "{:<11} {:<14} {:>12.3} {:>12.3} {:>14.1}",
                app,
                short(&r.arch),
                stacked_mj,
                offchip_mj,
                pj_per_instr
            );
            rows.push(serde_json::json!({
                "app": app,
                "arch": r.arch,
                "stacked_dynamic_mj": stacked_mj,
                "offchip_dynamic_mj": offchip_mj,
                "background_mj": background,
                "pj_per_instruction": pj_per_instr,
            }));
        }
    }
    println!(
        "\nSwap-heavy designs burn more dynamic energy; faster designs spend\n\
         less background energy (they finish sooner). Chameleon-Opt's swap\n\
         reduction shows up directly in the off-chip dynamic column."
    );
    harness.save_json("ext_energy.json", &rows);
    Ok(())
}

fn short(label: &str) -> String {
    label
        .replace(" (no stacked DRAM)", "")
        .chars()
        .take(14)
        .collect()
}
