//! Exact order statistics over raw samples (never histogram buckets).

/// Nearest-rank percentile `p` (0..=100) of `samples`; NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over already-sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
