//! Order statistics over measured samples.
//!
//! Every quantile is nearest-rank ([`percentile`], shared with the serving
//! bins), so a reported value is always one that was measured.

pub use cmr_bench::serving::percentile;

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank 25th percentile.
    pub q1: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank 75th percentile.
    pub q3: f64,
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of an unsorted sample (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Smallest value (0.0 when empty). For a latency measured in several
/// slices of one run on a shared machine: other tenants only ever add
/// time, so the least disturbed slice is the steadiest estimate of the
/// program's own cost.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median and quartiles of an unsorted sample.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        q1: percentile(&s, 0.25),
        median: percentile(&s, 0.5),
        q3: percentile(&s, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = sorted(&v);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&s, 0.11), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // An even-sized sample reports the lower middle value, never an
        // interpolation that no run measured.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(least(&[4.0, 1.5, 3.0]), 1.5);
        assert_eq!(least(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn summary_quartiles() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.q1, s.median, s.q3), (8, 2.0, 4.0, 6.0));
        assert_eq!(summarize(&[7.5]).median, 7.5);
        assert_eq!(summarize(&[]).n, 0);
    }
}
