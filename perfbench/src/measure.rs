//! Measurement helpers: the run loop, medians, digests, the timer's own
//! cost, and the host record every result carries.

use std::hint::black_box;
use std::time::{Duration, Instant};

use chameleon::simkit::hash::{fnv1a, splitmix64};

/// Seconds one pass of [`Calibration`] takes on the reference host: the
/// 2-CPU Intel Xeon (2.1 GHz) the benchmark was sized on, at its median
/// speed.
pub const REFERENCE_S: f64 = 0.066;

/// A fixed kernel that shares no code with the simulator: a dependent
/// walk around a 4 MiB random cycle, then a chain of integer hashes.
/// A shared host's speed drifts by tens of percent over minutes; timing
/// this kernel after every round measures the host's speed during the
/// run, and the end-to-end times and rates are reported scaled to the
/// reference host.
pub struct Calibration {
    next: Vec<u32>,
}

impl Calibration {
    const ENTRIES: u32 = 1 << 20;
    const STEPS: u32 = 1 << 20;
    const HASHES: u32 = 1 << 22;

    pub fn new() -> Self {
        // Sattolo's shuffle: `i -> next[i]` is one cycle through every
        // entry.
        let mut next: Vec<u32> = (0..Self::ENTRIES).collect();
        let mut state = 0x5EED;
        for i in (1..next.len()).rev() {
            state = splitmix64(state);
            next.swap(i, (state % i as u64) as usize);
        }
        Self { next }
    }

    /// Host seconds for one pass.
    pub fn time_s(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        let mut h = u64::from(at);
        for _ in 0..Self::HASHES {
            h = splitmix64(h);
        }
        black_box(h);
        t.elapsed().as_secs_f64()
    }
}

/// Calls `round` until `seconds` are spent, at least `min_rounds` times.
/// A round starts only if it should fit in the time left, judged by the
/// longest round so far, so a run lasts about `seconds` and no longer.
pub fn repeat_for(seconds: f64, min_rounds: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut longest = Duration::ZERO;
    let mut rounds = 0;
    loop {
        let t = Instant::now();
        round();
        longest = longest.max(t.elapsed());
        rounds += 1;
        if rounds >= min_rounds && start.elapsed() + longest > budget {
            break;
        }
    }
}

/// The median of `xs` (the mean of the two middle values for an even
/// count). `xs` must not be empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Serialises a report; equal strings mean byte-equal reports.
pub fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("simulator reports hold only serialisable values")
}

/// FNV-1a digest of a serialised report.
pub fn digest(json: &str) -> u64 {
    fnv1a(json.as_bytes())
}

/// Host seconds one `Instant::now()` costs. A timed span contains about
/// one such call and leaves another outside it, so span totals are
/// corrected by `calls × cost`.
pub fn timer_cost_s() -> f64 {
    const CALLS: u32 = 200_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..CALLS {
                last = black_box(Instant::now());
            }
            last.duration_since(start).as_secs_f64() / f64::from(CALLS)
        })
        .fold(f64::MAX, f64::min)
}

/// The process's peak resident set in MiB (`VmHWM`), where the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU count, CPU model, rustc version and source commit. A field that
/// cannot be read is `"unknown"`.
pub fn host_record() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_owned();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| unknown());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(unknown);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(unknown);
    vec![
        ("cpus", cpus),
        ("cpu_model", model),
        ("rustc", rustc),
        ("commit", git_commit().unwrap_or_else(unknown)),
    ]
}

/// The commit checked out in the current directory, read from `.git`
/// itself: no `git` process and no search above the checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_owned)
        })
}
