//! Sample statistics and process counters read from `/proc/self`.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it, as the nearest-rank value at that
/// percentile. Runs with fewer than twenty samples have no such
/// percentile above the median, so they report their maximum instead.
/// Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return (v[n - 1], 100.0);
    }
    // Nearest rank r (1-based) leaves n - r samples beyond it.
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// User + system CPU seconds this process has used so far (all threads).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3 (state), so field 14 is index 11.
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target this runs on.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few), (12.0, 100.0));
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let start = std::time::Instant::now();
        while cpu_seconds() == 0.0 && start.elapsed().as_secs() < 5 {
            std::hint::black_box((0..100_000u64).map(std::hint::black_box).sum::<u64>());
        }
        assert!(cpu_seconds() > 0.0);
    }
}
