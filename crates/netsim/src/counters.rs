//! The run-wide named view of the nodes' own counts (DESIGN.md §3).
//!
//! Every count lives once, in a typed field of the node that keeps it.
//! [`crate::Sim::counters`] asks each node to add its named counts
//! ([`crate::Node::counters`]) into one [`Counters`], which sums them
//! by name. Nothing is counted here while the run goes.

use std::collections::BTreeMap;

/// Named counts summed over nodes, listed in name order. A name whose
/// sum is zero is not listed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Add `n` to the count called `name`; a zero adds nothing, so the
    /// name is listed only once some node reports it non-zero.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if n > 0 {
            *self.0.entry(name).or_insert(0) += n;
        }
    }

    /// The count called `name` (0 if no node reported it).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// All `(name, count)` pairs sorted by name — the stable order used
    /// for reporting and determinism comparisons.
    pub fn sorted(&self) -> Vec<(&'static str, u64)> {
        self.0.iter().map(|(&name, &n)| (name, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_reads_as_zero() {
        let c = Counters::default();
        assert_eq!(c.get("nope"), 0);
        assert!(c.sorted().is_empty());
    }
}
