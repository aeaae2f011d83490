//! Ablations of the design decisions DESIGN.md calls out (D1–D6):
//! swap-counter threshold, segment size (2KB vs 64B CAMEO), dead-copy
//! elision on ISA relocations, and the security clear of Section V-D2.

use chameleon::{Architecture, ScaledParams, System, SystemReport};
use chameleon_bench::{banner, geomean, Harness};
use chameleon_simkit::mem::ByteSize;

fn run(params: &ScaledParams, arch: Architecture, apps: &[&str]) -> Vec<SystemReport> {
    apps.iter()
        .map(|app| {
            let mut s = System::new(arch, params);
            s.run_paper_protocol(app, 42).expect("Table II app")
        })
        .collect()
}

fn gm_ipc(rs: &[SystemReport]) -> f64 {
    geomean(&rs.iter().map(|r| r.run.geomean_ipc()).collect::<Vec<_>>())
}

fn main() {
    let harness = Harness::new();
    let apps = ["bwaves", "stream", "lbm", "hpccg"];
    let mut dump = Vec::new();

    banner("Ablation D1: PoM competing-counter swap threshold");
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "threshold", "PoM IPC", "PoM hit", "PoM swaps"
    );
    for threshold in [1u16, 4, 16, 64] {
        let mut params: ScaledParams = harness.params().clone();
        params.hma.swap_threshold = threshold;
        let rs = run(&params, Architecture::Pom, &apps);
        let hit = rs.iter().map(|r| r.stacked_hit_rate).sum::<f64>() / rs.len() as f64;
        let swaps: u64 = rs.iter().map(|r| r.effective_swaps).sum();
        println!(
            "{:>10} {:>10.3} {:>11.1}% {:>10}",
            threshold,
            gm_ipc(&rs),
            hit * 100.0,
            swaps
        );
        dump.push(serde_json::json!({
            "ablation": "swap_threshold", "value": threshold,
            "ipc": gm_ipc(&rs), "hit": hit, "swaps": swaps,
        }));
    }
    println!("(Chameleon's cache mode has no threshold; this is the PoM baseline knob.)");

    banner("Ablation D1b: Chameleon cache-mode fill threshold (paper uses 0)");
    for threshold in [0u16, 2, 8] {
        let mut params: ScaledParams = harness.params().clone();
        params.hma.cache_fill_threshold = threshold;
        let rs = run(&params, Architecture::ChameleonOpt, &apps);
        let hit = rs.iter().map(|r| r.stacked_hit_rate).sum::<f64>() / rs.len() as f64;
        println!(
            "{:>10}: Chameleon-Opt IPC {:.3}, hit {:.1}%",
            threshold,
            gm_ipc(&rs),
            hit * 100.0
        );
        dump.push(serde_json::json!({
            "ablation": "cache_fill_threshold", "value": threshold,
            "ipc": gm_ipc(&rs), "hit": hit,
        }));
    }
    println!("(Section VI-B: no threshold maximises cache-mode hit rate.)");

    banner("Ablation D2: segment granularity (2KB PoM vs 64B CAMEO)");
    for (name, arch) in [
        ("PoM-2KB", Architecture::Pom),
        ("CAMEO-64B", Architecture::Cameo),
    ] {
        let params: ScaledParams = harness.params().clone();
        let rs = run(&params, arch, &apps);
        let hit = rs.iter().map(|r| r.stacked_hit_rate).sum::<f64>() / rs.len() as f64;
        println!(
            "{name:>10}: IPC {:.3}, hit {:.1}%",
            gm_ipc(&rs),
            hit * 100.0
        );
        dump.push(serde_json::json!({
            "ablation": "segment_size", "value": name, "ipc": gm_ipc(&rs), "hit": hit,
        }));
    }
    println!("(Section VII: 2KB exploits spatial locality; 64B avoids moving cold data.)");

    banner("Ablation D5/D6: dead-copy elision and security clears");
    for (label, elide, clear) in [
        ("paper default", false, false),
        ("elide dead copies", true, false),
        ("secure clears on", false, true),
    ] {
        let mut params: ScaledParams = harness.params().clone();
        params.hma.elide_dead_copy = elide;
        params.hma.secure_clear = clear;
        let rs = run(&params, Architecture::ChameleonOpt, &apps);
        println!("{label:>20}: Chameleon-Opt IPC {:.3}", gm_ipc(&rs));
        dump.push(serde_json::json!({
            "ablation": "isa_datapath", "value": label, "ipc": gm_ipc(&rs),
        }));
    }
    println!("(ISA churn is absent from steady-state snippets, so effects are small;");
    println!(" the sec6f runner quantifies them on the allocation-heavy Figure 3 replay.)");

    banner("Ablation: explicit stride prefetcher (vs MLP-folded default)");
    for (label, pf) in [
        ("no explicit prefetcher", None),
        (
            "stride prefetcher on",
            Some(chameleon::cache::PrefetchConfig::default()),
        ),
    ] {
        let mut params: ScaledParams = harness.params().clone();
        params.prefetcher = pf;
        let rs = run(&params, Architecture::ChameleonOpt, &apps);
        let mpki = rs.iter().map(|r| r.llc_mpki).sum::<f64>() / rs.len() as f64;
        println!("{label:>26}: IPC {:.3}, LLC MPKI {:.2}", gm_ipc(&rs), mpki);
        dump.push(serde_json::json!({
            "ablation": "prefetcher", "value": label, "ipc": gm_ipc(&rs), "mpki": mpki,
        }));
    }

    banner("Ablation: capacity ratio at fixed stacked bandwidth");
    for ratio in [3u64, 5, 7] {
        let mut params = ScaledParams::laptop()
            .with_ratio(ratio)
            .expect("the laptop total splits at this ratio");
        params.instructions_per_core = harness.params().instructions_per_core;
        params.hma.stacked.capacity = ByteSize::bytes_exact(params.hma.stacked.capacity.bytes());
        let rs = run(&params, Architecture::ChameleonOpt, &apps);
        println!("     1:{ratio}: Chameleon-Opt IPC {:.3}", gm_ipc(&rs));
        dump.push(serde_json::json!({
            "ablation": "ratio", "value": ratio, "ipc": gm_ipc(&rs),
        }));
    }

    harness.save_json("ablations.json", &dump);
}
