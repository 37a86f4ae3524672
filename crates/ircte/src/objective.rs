//! The TE objective's measure: how evenly load spreads over providers.

/// Imbalance metrics over a set of provider utilisations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imbalance {
    /// Largest utilisation.
    pub max: f64,
    /// Smallest utilisation.
    pub min: f64,
    /// Mean utilisation.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Imbalance {
    /// Compute from utilisations (empty input yields zeros).
    pub fn of(utils: &[f64]) -> Self {
        if utils.is_empty() {
            return Self {
                max: 0.0,
                min: 0.0,
                mean: 0.0,
                stddev: 0.0,
            };
        }
        let max = utils.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = utils.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let var = utils.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / utils.len() as f64;
        Self {
            max,
            min,
            mean,
            stddev: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_metrics() {
        let i = Imbalance::of(&[0.2, 0.4, 0.6]);
        assert!((i.max - 0.6).abs() < 1e-12);
        assert!((i.min - 0.2).abs() < 1e-12);
        assert!((i.mean - 0.4).abs() < 1e-12);
        assert!(i.stddev > 0.0);
        let z = Imbalance::of(&[]);
        assert_eq!(z.max, 0.0);
    }
}
