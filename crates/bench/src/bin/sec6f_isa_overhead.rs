//! Section VI-F — ISA-Alloc/ISA-Free overhead analysis: replay the
//! Figure 3 allocation/free sequence against Chameleon hardware and
//! compute the end-to-end overhead of the transition-triggered swaps
//! using the paper's own formula.
//!
//! Paper: 242.8M swaps over 53.8 hours ≈ 1.06% of end-to-end time.

use chameleon::core_policies::{policy::HmaPolicy, Flavor, HmaConfig, RemapPolicy};
use chameleon::os::{MemoryMap, OsConfig, OsKernel};
use chameleon_bench::{banner, Harness};
use chameleon_workloads::schedule::DatacenterSchedule;

fn main() {
    let harness = Harness::new();
    let scale = harness.params().footprint_scale;
    let schedule = DatacenterSchedule::figure3().scaled(scale);
    let hma = HmaConfig::scaled_laptop();
    let map = MemoryMap::new(hma.stacked.capacity, hma.offchip.capacity);
    let mut os = OsKernel::new(OsConfig::default(), map);
    let mut policy = RemapPolicy::new(hma.clone(), Flavor::Chameleon { opt: false });

    banner("Section VI-F: ISA-Alloc/ISA-Free overhead");
    // Replay the job sequence: each job allocates its footprint page by
    // page, runs (hammering a hot subset so the remapping hardware swaps
    // hot segments into the stacked slots), and frees everything on exit
    // — the frees are what trigger the proactive ISA relocations.
    let mut total_alloc_pages = 0u64;
    let mut now = 0u64;
    let threshold = hma.swap_threshold as u64;
    for job in schedule.jobs() {
        let pid = os.spawn(job.footprint);
        let pages = job.footprint.bytes() / 4096;
        total_alloc_pages += pages;
        for p in 0..pages {
            os.touch(pid, p * 4096, true, now, &mut policy)
                .expect("allocation within footprint");
        }
        // Run phase: every 16th page is hot and gets promoted.
        for p in (0..pages).step_by(16) {
            let paddr = os.peek_translate(pid, p * 4096).expect("page resident");
            for _ in 0..=threshold {
                now += 5_000_000;
                policy.access(paddr, false, now);
            }
        }
        os.exit(pid, now, &mut policy).expect("job exits");
    }

    let s = policy.stats();
    println!("pages allocated over the sequence : {total_alloc_pages}");
    println!(
        "per-segment ISA-Alloc invocations : {}",
        s.isa_allocs.value()
    );
    println!(
        "per-segment ISA-Free invocations  : {}",
        s.isa_frees.value()
    );
    println!(
        "transition-triggered swaps        : {}",
        s.isa_swaps.value()
    );

    // The paper's conservative estimate (Section VI-F): one swap per
    // ISA-Alloc/Free, 700 CPU cycles per 64B line of a 2KB segment, on a
    // 2.25GHz machine, against the 53.8-hour sequence.
    let swaps_per_isa_scaled =
        s.isa_swaps.value() as f64 / (s.isa_allocs.value() + s.isa_frees.value()) as f64;
    let full_scale_isa = (s.isa_allocs.value() + s.isa_frees.value()) as f64 * scale as f64;
    let full_scale_swaps = full_scale_isa * swaps_per_isa_scaled;
    let seg_lines = hma.segment.bytes() as f64 / 64.0;
    let seconds = full_scale_swaps * 700.0 * seg_lines / 2.25e9;
    let total_seconds = 193_680.0; // 53.8 hours
    println!(
        "\nmeasured swap rate: {:.3} swaps per ISA invocation (paper assumes 1.0)",
        swaps_per_isa_scaled
    );
    println!(
        "projected full-scale swaps: {:.1}M (paper: 242.8M upper bound)",
        full_scale_swaps / 1e6
    );
    println!(
        "end-to-end overhead: {:.2}% of {:.1} hours (paper: 1.06%)",
        seconds * 100.0 / total_seconds,
        total_seconds / 3600.0
    );

    harness.save_json(
        "sec6f_isa_overhead.json",
        &serde_json::json!({
            "isa_allocs": s.isa_allocs.value(),
            "isa_frees": s.isa_frees.value(),
            "isa_swaps": s.isa_swaps.value(),
            "swaps_per_isa": swaps_per_isa_scaled,
            "projected_full_scale_swaps": full_scale_swaps,
            "overhead_percent": seconds * 100.0 / total_seconds,
        }),
    );
}
