//! Percentile, ratio and failure arithmetic for the reported metrics.
//!
//! A timing is reported as its median plus one tail percentile: the highest
//! percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`] samples above
//! it, so a tail figure always rests on enough samples to mean something.
//! With fewer than `2 * MIN_BEYOND` samples no percentile qualifies and the
//! tail reads 0 (its percentile too); the sample count is always reported.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie above a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and credible tail of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub sum: f64,
    pub p50: f64,
    /// The reported tail percentile (0 when none qualifies).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Median of unsorted samples (mean of the two middle ones for even counts);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = TAIL_LADDER
        .into_iter()
        .find(|&pct| n > 0 && beyond(n, pct) >= MIN_BEYOND)
        .unwrap_or(0.0);
    Summary {
        n,
        sum: sorted.iter().sum(),
        p50: median(&sorted),
        tail_pct,
        tail: if tail_pct > 0.0 {
            percentile(&sorted, tail_pct)
        } else {
            0.0
        },
    }
}

/// `part / base`, or 0 when the base is 0 (nothing to be a share of). Every
/// ratio the benchmark prints also prints its base.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = ms(100);
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let s = summarize(&ms(100));
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
        // 40 samples: p75 leaves 10 beyond, p90 only 4.
        let s = summarize(&ms(40));
        assert_eq!((s.tail_pct, s.tail), (75.0, 30.0));
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(summarize(&ms(1000)).tail_pct, 99.0);
        // 20 samples: the median leaves 10 beyond.
        assert_eq!(summarize(&ms(20)).tail_pct, 50.0);
    }

    #[test]
    fn too_few_samples_report_no_tail_but_keep_the_count() {
        let s = summarize(&ms(19));
        assert_eq!((s.n, s.tail_pct, s.tail), (19, 0.0, 0.0));
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.sum, 190.0);
        let empty = summarize(&[]);
        assert_eq!((empty.n, empty.p50, empty.tail), (0, 0.0, 0.0));
    }

    #[test]
    fn ratios_with_a_zero_base_read_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        // A failed fraction: 2 failed jobs out of 32 attempted.
        assert_eq!(ratio(2.0, 32.0), 0.0625);
    }
}
