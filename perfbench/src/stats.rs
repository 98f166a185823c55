//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Smallest value; infinity when empty.
pub fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Index of the smallest value (the first of equals); 0 when empty.
pub fn argmin(values: &[f64]) -> usize {
    (0..values.len())
        .min_by(|&a, &b| values[a].total_cmp(&values[b]))
        .unwrap_or(0)
}

/// A percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The nearest-rank `percentile` of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], percentile: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (percentile / 100.0 * n as f64).ceil() as usize;
    let value = sorted
        .get(rank.clamp(1, n.max(1)) - 1)
        .copied()
        .unwrap_or(0.0);
    Percentile {
        percentile,
        value,
        samples: n,
        beyond: sorted.iter().filter(|&&v| v > value).count(),
    }
}
