//! Sample statistics and process probes (CPU clock, peak RSS).

use std::os::raw::{c_int, c_long};

/// Median of `samples` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up (two samples, i = 1).
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail latency is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it, with its value. A percentile with fewer samples beyond it
/// would be set by one or two outliers and jump from run to run. `None`
/// when even the median has fewer than ten samples beyond it (under 20
/// samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p * n as f64 / 100.0).ceil() as usize;
        (n >= rank + 10).then(|| (p, percentile(samples, p)))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, live or exited, at nanosecond resolution (`/proc/self/stat`
/// only counts 10 ms ticks, too coarse for a sub-second request).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux) that outlives the call, and the clock id is a constant the
    // kernel always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, for the informational spec digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Under 20 samples not even the median has ten beyond it.
        assert_eq!(tail_percentile(&samples(19)), None);
        // 20 samples: p50 (rank 10) has exactly ten beyond; p75 only five.
        assert_eq!(tail_percentile(&samples(20)), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) has ten beyond; p95 only five.
        assert_eq!(tail_percentile(&samples(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) has ten beyond.
        assert_eq!(tail_percentile(&samples(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > before, "{x}");
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
