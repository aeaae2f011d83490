//! Figure 3 — free memory over a multi-day sequential workload sequence
//! on a 24GB machine, sampled every 2 minutes, with the capacity-pressure
//! regions the paper marks ①–⑤.

use chameleon_bench::{banner, Harness, ScaleError};
use chameleon_simkit::mem::ByteSize;
use chameleon_workloads::schedule::DatacenterSchedule;

fn main() -> Result<(), ScaleError> {
    let harness = Harness::new()?;
    let schedule = DatacenterSchedule::figure3();
    let cap = ByteSize::gib(24);
    let timeline = schedule.free_space_timeline(cap, 2);

    banner("Figure 3: free memory over time (24GB machine, 2-minute samples)");
    println!(
        "sequence: {} jobs over {:.1} hours",
        schedule.jobs().len(),
        schedule.total_minutes() as f64 / 60.0
    );
    // A coarse ASCII strip chart: one row per half hour.
    println!("{:>7}  {:>9}  free", "minute", "free");
    for s in timeline.iter().step_by(15) {
        let gb = s.free as f64 / (1u64 << 30) as f64;
        let bars = (gb).round() as usize;
        println!("{:>7}  {:>7.1}GB  {}", s.minute, gb, "#".repeat(bars));
    }

    for threshold_gb in [2u64, 4, 6] {
        let pressured = schedule.pressure_minutes(cap, ByteSize::gib(threshold_gb));
        println!(
            "minutes with free < {threshold_gb}GB: {pressured} \
             ({:.1}% of the sequence)",
            pressured as f64 * 100.0 / schedule.total_minutes() as f64
        );
    }
    println!(
        "\npaper: free space swings between a few MB and several GB; a static\n\
         2/4/6GB cache would hurt every region where free < cache size"
    );

    harness.save_json("fig03_free_space_timeline.json", &timeline);
    Ok(())
}
