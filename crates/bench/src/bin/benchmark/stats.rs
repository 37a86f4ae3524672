//! Order statistics used by the harness and by `compare`.

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples when `n` is even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank 75th percentile: the smallest sample with at least 75 %
/// of the samples at or below it; 0 when empty.
pub fn p75(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n => v[(3 * n).div_ceil(4) - 1],
    }
}

/// Samples strictly beyond the nearest-rank 75th percentile.
pub fn samples_beyond_p75(n: usize) -> usize {
    n - (3 * n).div_ceil(4)
}

/// The percentile rule (choosing-metrics §1): a tail percentile is
/// reported as resolved only with at least ten samples beyond it, which
/// for p75 means n ≥ 40. Below that only the median carries a claim.
pub fn p75_resolved(n: usize) -> bool {
    samples_beyond_p75(n) >= 10
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Quartile distance as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the spread the driver computes. Needs at least two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule() {
        // n = 40: p75 is the 30th sample and leaves exactly ten beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(p75(&v), 30.0);
        assert_eq!(samples_beyond_p75(40), 10);
        assert!(p75_resolved(40));
        assert_eq!(median(&v), 20.5);
        // n = 10: two samples beyond p75 — median only.
        assert_eq!(samples_beyond_p75(10), 2);
        assert!(!p75_resolved(10));
        assert!(!p75_resolved(39));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv(&[3.0, 3.0, 3.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
