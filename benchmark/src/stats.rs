//! Sample statistics, the memory probe, the host record and the result
//! a workload hands back to `main`.

use std::collections::BTreeMap;

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank percentile `p` (0–100); 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A latency percentile is reported only with at least this many samples
/// beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Samples beyond nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The faster half (rounded up) of timed repetitions, each a wall time in
/// seconds with its samples, fastest first. On a shared host a neighbour
/// slows whole repetitions at a time (the two vCPUs trade speed by up to
/// 1.7× for seconds on end), so figures taken over the faster half
/// describe the program, and the slower half mostly the neighbour.
pub fn faster_half<T>(reps: &[(f64, T)]) -> Vec<&(f64, T)> {
    let mut kept: Vec<&(f64, T)> = reps.iter().collect();
    kept.sort_by(|a, b| a.0.total_cmp(&b.0));
    kept.truncate(reps.len().div_ceil(2));
    kept
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string, for the host record.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// splitmix64 finalizer: derives independent seeds from one.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, k)`.
pub fn unit(seed: u64, k: u64) -> f64 {
    (mix(seed, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    /// Operations attempted and failed (the workload defines the unit).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub broken: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Worker threads (or clients) requested and granted.
    pub threads_requested: usize,
    pub threads_granted: usize,
}

impl Run {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}
