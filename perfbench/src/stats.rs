//! Small numeric helpers: percentiles, the tail rule, and process memory.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `0..=1`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn p50(samples: &[u64]) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// The tail percentile for `n` samples: the highest rung of the ladder
/// that leaves at least ten samples beyond it (the median below 40). The
/// ladder stops at p99 so that a faster system, which completes more ops
/// in the same time, is not reported at a higher percentile than before.
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];
    LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 1.0), 4);
    }
}
