//! Datacenter free-space study: replay the paper's Figure 3 multi-day job
//! sequence, watch OS-visible free memory swing, and see how much of that
//! free space Chameleon hardware converts into cache capacity at each
//! point of the sequence.
//!
//! ```text
//! cargo run --release --example datacenter_freespace
//! ```

use chameleon::core_policies::{policy::HmaPolicy, Flavor, HmaConfig, RemapPolicy};
use chameleon::os::{MemoryMap, NodeId, OsConfig, OsKernel};
use chameleon::workloads::schedule::DatacenterSchedule;

fn main() {
    // Scaled 1/64 system, same shape as the paper's 24GB machine.
    let hma = HmaConfig::scaled_laptop();
    let schedule = DatacenterSchedule::figure3().scaled(64);
    let map = MemoryMap::new(hma.stacked.capacity, hma.offchip.capacity);
    let mut os = OsKernel::new(OsConfig::default(), map);
    let mut basic = RemapPolicy::new(hma.clone(), Flavor::Chameleon { opt: false });
    let mut opt = RemapPolicy::new(hma.clone(), Flavor::Chameleon { opt: true });

    println!(
        "{:<12} {:>9} {:>10} {:>16} {:>16}",
        "job", "footprint", "free after", "cache-mode", "cache-mode(Opt)"
    );
    for job in schedule.jobs() {
        // Allocate the job's footprint, report to both hardware variants.
        let pid = os.spawn(job.footprint);
        let pages = job.footprint.bytes() / 4096;
        for p in 0..pages {
            // Drive one OS; mirror the allocations into the second policy
            // so both track the same physical state.
            let t = os.touch(pid, p * 4096, true, 0, &mut basic).expect("alloc");
            use chameleon::os::isa::IsaHook;
            opt.isa_alloc(t.paddr & !4095, 4096, 0);
        }
        let free = os.total_free_bytes();
        println!(
            "{:<12} {:>9} {:>8}MB {:>15.1}% {:>15.1}%",
            job.app,
            job.footprint,
            free >> 20,
            basic.mode_distribution().cache_fraction() * 100.0,
            opt.mode_distribution().cache_fraction() * 100.0,
        );
        // Job departs: everything is freed (and the hardware told).
        let rss = os.rss(pid).expect("live");
        os.exit(pid, 0, &mut basic).expect("exit");
        // Mirror frees into opt (the whole resident set went away).
        let _ = rss;
        // Rebuild opt's view cheaply: in a real co-design there is one
        // hardware instance; we reset opt to all-free to stay in sync.
        opt = RemapPolicy::new(hma.clone(), Flavor::Chameleon { opt: true });
    }

    println!(
        "\nfree stacked: {}MB, free off-chip: {}MB after the sequence",
        os.free_bytes(NodeId::Stacked) >> 20,
        os.free_bytes(NodeId::Offchip) >> 20
    );
    println!(
        "Reading the table: when a big job holds the machine, little free\n\
         space remains and most groups run as PoM; between jobs the freed\n\
         memory immediately becomes hardware cache (Chameleon-Opt converts\n\
         off-chip free space too, so its cache fraction is always higher)."
    );
}
