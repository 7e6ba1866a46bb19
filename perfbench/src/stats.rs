//! Order statistics over a run's samples.

/// Smallest number of samples that must lie strictly above a reported
/// percentile (the tail a percentile summarises must itself be a sample, not
/// one or two outliers).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `pct` percentile, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie above it (for p90 that needs at least
/// 100 samples).
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&pct) {
        return None;
    }
    // Nearest rank: the smallest value with at least pct% of the samples at
    // or below it.
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten_samples() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples leaves 9 above it.
        assert_eq!(percentile(&values, 90.0), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value, with exactly 10 above it.
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        // p50 of 19 samples leaves 9 above it; of 20, 10.
        assert_eq!(percentile(&values[..19], 50.0), None);
        assert_eq!(percentile(&values[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
