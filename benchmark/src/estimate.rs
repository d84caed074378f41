//! The estimator behind every host-time metric: median of fixed-work
//! segments, with the inter-quartile range beside it.
//!
//! A whole-run total absorbs every scheduler hiccup of a shared box; the
//! median of ≥ 16 equal segments ignores up to half of them. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the exclusive
//! method), which is what the driver applies across runs, so the spread
//! printed here and the spread the driver computes mean the same thing.

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 for a zero median).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }

    /// A value that was not estimated from segments (a count, a ratio).
    pub fn exact(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
        }
    }
}

/// `statistics.quantiles(values, n=4)`; one value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return Summary::exact(v[0]);
    }
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Percentile of an unsorted sample (sorts it in place), interpolating
/// linearly between the two nearest ranks. `p` in `[0, 1]`. Interpolation
/// matters on `power`, whose segments have 24 samples: there the median
/// query is the mean of the 12th and 13th, not whichever of the two a
/// seed happens to put first, and p99 lies between the two slowest.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    samples.sort_unstable();
    let rank = p.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    let weight = rank - low as f64;
    samples[low] as f64 * (1.0 - weight) + samples[high] as f64 * weight
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut v: Vec<u64> = (1..=101).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 51.0);
        assert_eq!(percentile(&mut v, 0.99), 100.0);
        assert_eq!(percentile(&mut v, 1.0), 101.0);
        let mut few = vec![7, 3, 5, 9];
        assert_eq!(percentile(&mut few, 0.5), 6.0);
        assert!((percentile(&mut few, 0.99) - 8.94).abs() < 1e-9);
        assert_eq!(percentile(&mut [4], 0.99), 4.0);
    }
}
