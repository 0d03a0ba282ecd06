//! Order statistics over the benchmark's own raw samples.

/// The `q`-quantile (0 < q ≤ 1) of `samples` by nearest rank: the smallest
/// sample with at least `q · n` samples at or below it. `0.0` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median, averaging the two middle samples of an even count. `0.0`
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean. `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The element-wise median of equally long rounds of per-item samples:
/// each item's typical value with the rounds that interference slowed
/// voted out.
pub fn elementwise_median(rounds: &[Vec<f64>]) -> Vec<f64> {
    let items = rounds.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| median(&rounds.iter().map(|round| round[i]).collect::<Vec<_>>()))
        .collect()
}

/// `total / count`, or `0.0` when nothing was counted.
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// `part / whole`, or `0.0` when nothing was counted.
pub fn frac(part: usize, whole: usize) -> f64 {
    per(part as f64, whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
