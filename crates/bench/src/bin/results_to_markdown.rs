//! Regenerates the paper-vs-measured tables of EXPERIMENTS.md from the
//! JSON dumps under `results/` (so the document is reproducible from a
//! `repro_all` run). Writes `results/EXPERIMENTS_GENERATED.md`.

use chameleon_bench::{Harness, ScaleError};
use serde_json::Value;

fn geo(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.filter(|x| *x > 0.0).collect();
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let mut out = String::new();
    let mut push = |s: &str| out.push_str(s);

    push("<!-- Generated by results_to_markdown from results/*.json -->\n\n");

    // Figure 2a/2b.
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig02a_numa_allocator.json") {
        let avg = mean(rows.iter().map(|r| r["hit_rate"].as_f64().unwrap_or(0.0)));
        push(&format!(
            "| Fig. 2a | first-touch stacked hit rate | 18.5% avg | {:.1}% avg |\n",
            avg * 100.0
        ));
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig02b_autonuma.json") {
        let avg90 = mean(rows.iter().map(|r| r["hit_90"].as_f64().unwrap_or(0.0)));
        push(&format!(
            "| Fig. 2b | AutoNUMA hit rate (90% thresh) | 64.4% avg | {:.1}% avg |\n",
            avg90 * 100.0
        ));
    }
    if let Some(epochs) = harness.load_json::<Vec<Value>>("fig02c_autonuma_timeline.json") {
        let peak = epochs
            .iter()
            .map(|e| e["stacked_hit_rate"].as_f64().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let last = epochs
            .last()
            .and_then(|e| e["stacked_hit_rate"].as_f64())
            .unwrap_or(0.0);
        push(&format!(
            "| Fig. 2c | cloverleaf timeline peak → final | 77.1% → 30.7% | {:.1}% → {:.1}% |\n",
            peak * 100.0,
            last * 100.0
        ));
    }

    // Figure 4.
    if let Some(v) = harness.load_json::<Value>("fig04_capacity_sweep.json") {
        let caps = v["capacities_gb"].as_array().cloned().unwrap_or_default();
        let ms = v["makespans"].as_array().cloned().unwrap_or_default();
        if !caps.is_empty() && !ms.is_empty() {
            let idx24 = caps
                .iter()
                .position(|c| c.as_u64() == Some(24))
                .unwrap_or(0);
            let imp: Vec<f64> = ms
                .iter()
                .filter_map(|row| {
                    let row = row.as_array()?;
                    let t16 = row.first()?.as_f64()?;
                    let t24 = row.get(idx24)?.as_f64()?;
                    Some((t16 - t24) * 100.0 / t16)
                })
                .collect();
            push(&format!(
                "| Fig. 4 | exec-time improvement at 24GB vs 16GB | 75.4% avg | {:.1}% avg |\n",
                imp.iter().sum::<f64>() / imp.len().max(1) as f64
            ));
        }
    }

    // Figures 15-19 from the main sweep JSONs.
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig15_hit_rate.json") {
        for (col, paper) in [
            ("alloy", 62.4),
            ("pom", 81.0),
            ("chameleon", 84.6),
            ("chameleon_opt", 89.4),
        ] {
            let avg = mean(rows.iter().map(|r| r[col].as_f64().unwrap_or(0.0)));
            push(&format!(
                "| Fig. 15 | {col} stacked hit rate | {paper:.1}% avg | {:.1}% avg |\n",
                avg * 100.0
            ));
        }
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig16_mode_distribution.json") {
        let c = mean(
            rows.iter()
                .map(|r| r["chameleon_cache_fraction"].as_f64().unwrap_or(0.0)),
        );
        let o = mean(
            rows.iter()
                .map(|r| r["chameleon_opt_cache_fraction"].as_f64().unwrap_or(0.0)),
        );
        push(&format!(
            "| Fig. 16 | cache-mode groups (Cham / Opt) | 9.2% / 40.6% | {:.1}% / {:.1}% |\n",
            c * 100.0,
            o * 100.0
        ));
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig17_swaps.json") {
        let norm = |col: &str| {
            mean(rows.iter().filter_map(|r| {
                let base = r["pom_swaps"].as_f64()?;
                if base == 0.0 {
                    return None;
                }
                Some(r[col].as_f64()? / base)
            }))
        };
        push(&format!(
            "| Fig. 17 | swaps vs PoM (Cham / Opt) | 0.86 / 0.57 | {:.2} / {:.2} |\n",
            norm("chameleon_swaps"),
            norm("chameleon_opt_swaps")
        ));
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig18_ipc.json") {
        // rows: {app, archs, ipc[6]} in figure18 order.
        let col = |i: usize| {
            geo(rows
                .iter()
                .filter_map(move |r| r["ipc"].as_array()?.get(i)?.as_f64()))
        };
        let (f20, f24, alloy, pom, cham, opt) = (col(0), col(1), col(2), col(3), col(4), col(5));
        push(&format!(
            "| Fig. 18 | PoM vs 20GB / 24GB baseline | +85.2% / +36.5% | {:+.1}% / {:+.1}% |\n",
            (pom / f20 - 1.0) * 100.0,
            (pom / f24 - 1.0) * 100.0
        ));
        push(&format!(
            "| Fig. 18 | Chameleon vs PoM / Alloy | +6.3% / +18.5% | {:+.1}% / {:+.1}% |\n",
            (cham / pom - 1.0) * 100.0,
            (cham / alloy - 1.0) * 100.0
        ));
        push(&format!(
            "| Fig. 18 | Cham-Opt vs PoM / Alloy | +11.6% / +24.2% | {:+.1}% / {:+.1}% |\n",
            (opt / pom - 1.0) * 100.0,
            (opt / alloy - 1.0) * 100.0
        ));
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig19_amat.json") {
        let g = |col: &str| geo(rows.iter().filter_map(|r| r[col].as_f64()));
        push(&format!(
            "| Fig. 19 | AMAT PoM / Cham / Opt (cycles) | ~700, decreasing | {:.0} / {:.0} / {:.0} |\n",
            g("pom"),
            g("chameleon"),
            g("chameleon_opt")
        ));
    }
    if let Some(v) = harness.load_json::<Value>("fig21_ratio_modes.json") {
        if let Some(table) = v["cache_fraction"].as_array() {
            let avg_col = |i: usize| {
                mean(
                    table
                        .iter()
                        .filter_map(move |row| row.as_array()?.get(i)?.as_f64()),
                )
            };
            push(&format!(
                "| Fig. 21 | Opt cache groups 1:3 / 1:5 / 1:7 | 33% / 40.6% / 48.7% | {:.1}% / {:.1}% / {:.1}% |\n",
                avg_col(0) * 100.0,
                avg_col(1) * 100.0,
                avg_col(2) * 100.0
            ));
        }
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig22_polymorphic.json") {
        let col = |i: usize| {
            geo(rows
                .iter()
                .filter_map(move |r| r["ipc"].as_array()?.get(i)?.as_f64()))
        };
        // archs: f20, f24, poly, cham, opt.
        let (poly, cham, opt) = (col(2), col(3), col(4));
        push(&format!(
            "| Fig. 22 | Cham / Opt vs Polymorphic | +10.5% / +15.8% | {:+.1}% / {:+.1}% |\n",
            (cham / poly - 1.0) * 100.0,
            (opt / poly - 1.0) * 100.0
        ));
    }
    if let Some(rows) = harness.load_json::<Vec<Value>>("fig23_ratio_ipc.json") {
        for entry in rows {
            let ratio = entry["ratio"].as_u64().unwrap_or(0);
            let g = entry["geomean_ipc"].as_array().cloned().unwrap_or_default();
            if g.len() >= 5 {
                let pom = g[2].as_f64().unwrap_or(1.0);
                let cham = g[3].as_f64().unwrap_or(1.0);
                let opt = g[4].as_f64().unwrap_or(1.0);
                let paper = if ratio == 3 {
                    "+5.9% / +7.6%"
                } else {
                    "+8.1% / +12.4%"
                };
                push(&format!(
                    "| Fig. 23 | 1:{ratio} Cham / Opt vs PoM | {paper} | {:+.1}% / {:+.1}% |\n",
                    (cham / pom - 1.0) * 100.0,
                    (opt / pom - 1.0) * 100.0
                ));
            }
        }
    }
    if let Some(v) = harness.load_json::<Value>("sec6f_isa_overhead.json") {
        push(&format!(
            "| §VI-F | ISA-Alloc/Free overhead | 1.06% (conservative bound) | {:.3}% measured |\n",
            v["overhead_percent"].as_f64().unwrap_or(0.0)
        ));
    }

    let path = harness.result_path("EXPERIMENTS_GENERATED.md");
    std::fs::write(&path, &out).expect("write generated markdown");
    println!("{out}");
    println!("[saved {}]", path.display());
    Ok(())
}
