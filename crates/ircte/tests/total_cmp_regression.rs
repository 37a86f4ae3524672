//! Pinned-value regression tests for the `partial_cmp` → `total_cmp`
//! sweep (PR 7, mirroring the PR 4 ZipfPicker fix).
//!
//! Two things are frozen here: (1) on finite inputs every policy picks
//! exactly the provider it picked before the conversion — `total_cmp`
//! agrees with `partial_cmp` wherever the latter is `Some`; (2) NaN
//! inputs no longer panic (`.expect("finite")` is gone) and sort as
//! "worst", so a poisoned metric can never *win* a selection.

use ircte::objective::Imbalance;
use ircte::policy::{ProviderView, SelectionPolicy};

fn view(util: f64) -> ProviderView {
    ProviderView {
        utilisation: util,
        up: true,
    }
}

#[test]
fn weighted_balance_pinned_ratio_winner() {
    // Utilisation ratios (allocated / capacity) 0.3, 0.25, 0.28 → index 1.
    let views = [view(0.3), view(0.25), view(0.28)];
    assert_eq!(SelectionPolicy::WeightedBalance.select(&views), Some(1));
}

#[test]
fn nan_metric_never_wins_and_never_panics() {
    // Before the sweep this was `partial_cmp(..).expect(..)` — a NaN
    // utilisation aborted the run. total_cmp orders +NaN above every
    // finite value, so the poisoned provider simply loses.
    let util_views = [view(f64::NAN), view(0.99)];
    assert_eq!(
        SelectionPolicy::WeightedBalance.select(&util_views),
        Some(1)
    );
}

#[test]
fn imbalance_pinned_values() {
    let im = Imbalance::of(&[0.2, 0.4, 0.6]);
    assert_eq!(im.max, 0.6);
    assert_eq!(im.min, 0.2);
    assert!((im.mean - 0.4).abs() < 1e-12);
    assert!((im.stddev - (2.0 / 75.0f64).sqrt()).abs() < 1e-12);
}
