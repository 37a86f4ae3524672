//! Deterministic provider-selection policies.

/// A provider's current view, as the policies see it.
#[derive(Debug, Clone, Copy)]
pub struct ProviderView {
    /// Current utilisation in [0, ∞) (allocated / capacity).
    pub utilisation: f64,
    /// Whether the provider is usable at all.
    pub up: bool,
}

/// How the IRC engine picks a provider for a new flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Lowest monetary cost. Every provider costs the same, so this is
    /// the first provider that is up: a fixed primary locator.
    MinCost,
    /// Balance allocated load across providers: pick the provider with
    /// the lowest utilisation (every provider has the same weight).
    WeightedBalance,
}

impl SelectionPolicy {
    /// Choose among `views`; returns the index of the winner, or `None`
    /// if every provider is down. Ties break toward the lower index
    /// (deterministic).
    pub fn select(&self, views: &[ProviderView]) -> Option<usize> {
        match self {
            SelectionPolicy::MinCost => views.iter().position(|v| v.up),
            SelectionPolicy::WeightedBalance => views
                .iter()
                .enumerate()
                .filter(|(_, v)| v.up)
                .min_by(|(ia, a), (ib, b)| a.utilisation.total_cmp(&b.utilisation).then(ia.cmp(ib)))
                .map(|(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(util: f64) -> ProviderView {
        ProviderView {
            utilisation: util,
            up: true,
        }
    }

    #[test]
    fn weighted_balance_picks_least_utilised() {
        let views = [view(0.3), view(0.2)];
        assert_eq!(SelectionPolicy::WeightedBalance.select(&views), Some(1));
        let views = [view(0.1), view(0.2)];
        assert_eq!(SelectionPolicy::WeightedBalance.select(&views), Some(0));
    }

    #[test]
    fn down_providers_skipped() {
        for policy in [SelectionPolicy::MinCost, SelectionPolicy::WeightedBalance] {
            let mut views = [view(0.0), view(0.9)];
            views[0].up = false;
            assert_eq!(policy.select(&views), Some(1), "{policy:?}");
            views[1].up = false;
            assert_eq!(policy.select(&views), None, "{policy:?}");
        }
    }

    #[test]
    fn ties_break_deterministically() {
        let views = [view(0.5), view(0.5)];
        assert_eq!(SelectionPolicy::WeightedBalance.select(&views), Some(0));
        // MinCost ignores load: the first provider wins however busy.
        let views = [view(0.9), view(0.1)];
        assert_eq!(SelectionPolicy::MinCost.select(&views), Some(0));
    }
}
