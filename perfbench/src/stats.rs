//! Order statistics over timing samples, and the process's peak memory.

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank `p`-th percentile of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p)
}

/// Percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_CANDIDATES`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`. With
/// too few samples for any candidate, the median is reported.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (50.0, f64::NAN);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_CANDIDATES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n - rank.min(n) >= TAIL_MIN_BEYOND {
            return (p, nearest_rank(&v, p));
        }
    }
    (50.0, nearest_rank(&v, 50.0))
}

/// Restart the peak-RSS count (`VmHWM`) from the current resident size,
/// so that [`peak_rss_mb`] covers only what runs afterwards. Returns
/// `false` where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
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
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 75.0), 6.0);
        assert_eq!(percentile(&xs, 50.0), 4.0);
        assert_eq!(percentile(&[2.0], 75.0), 2.0);
        assert!(percentile(&[], 75.0).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 1980.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&xs), (50.0, 6.0));
    }
}
