//! The IRC engine: providers, per-flow RLOC choice, and repath on a
//! provider failure — the component both PCEs of the paper run "online
//! … in background, so the mapping is always known aforehand".

use crate::policy::{ProviderView, SelectionPolicy};
use lispwire::Ipv4Address;
use std::collections::BTreeMap;

/// Index of a provider within an engine.
pub type ProviderId = usize;

/// One upstream provider of the domain.
#[derive(Debug, Clone)]
pub struct Provider {
    /// Human-readable name ("Provider A").
    pub name: String,
    /// The local RLOC on this provider (the border router's address).
    pub rloc: Ipv4Address,
    /// Capacity in arbitrary rate units (e.g. Mbps).
    pub capacity: f64,
    /// Administrative up/down state.
    pub up: bool,
}

impl Provider {
    /// A provider that is up.
    pub fn new(name: &str, rloc: Ipv4Address, capacity: f64) -> Self {
        Self {
            name: name.to_string(),
            rloc,
            capacity,
            up: true,
        }
    }
}

/// A flow the engine tracks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedFlow {
    /// Flow key: (source EID, destination EID).
    pub key: (Ipv4Address, Ipv4Address),
    /// Estimated rate in the same units as provider capacity.
    pub rate: f64,
    /// Provider currently carrying it.
    pub provider: ProviderId,
}

/// A repath decision: move `flow_key` to `new_provider`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// The flow to move.
    pub flow_key: (Ipv4Address, Ipv4Address),
    /// Where it should now ride.
    pub new_provider: ProviderId,
    /// The RLOC of the new provider.
    pub new_rloc: Ipv4Address,
}

/// The IRC engine.
#[derive(Debug, Clone)]
pub struct IrcEngine {
    providers: Vec<Provider>,
    policy: SelectionPolicy,
    flows: BTreeMap<(u32, u32), TrackedFlow>,
    /// Flows admitted.
    pub flows_admitted: u64,
}

impl IrcEngine {
    /// An engine over `providers` with the given selection policy.
    ///
    /// # Panics
    /// Panics if `providers` is empty.
    pub fn new(providers: Vec<Provider>, policy: SelectionPolicy) -> Self {
        assert!(!providers.is_empty(), "need at least one provider");
        Self {
            providers,
            policy,
            flows: BTreeMap::new(),
            flows_admitted: 0,
        }
    }

    /// The configured providers.
    pub fn providers(&self) -> &[Provider] {
        &self.providers
    }

    /// Mark a provider up/down.
    pub fn set_up(&mut self, p: ProviderId, up: bool) {
        self.providers[p].up = up;
    }

    fn key(flow: (Ipv4Address, Ipv4Address)) -> (u32, u32) {
        (flow.0.to_u32(), flow.1.to_u32())
    }

    /// Current allocated load per provider.
    pub fn loads(&self) -> Vec<f64> {
        let mut load = vec![0.0; self.providers.len()];
        for f in self.flows.values() {
            load[f.provider] += f.rate;
        }
        load
    }

    /// Current utilisation per provider.
    pub fn utilisations(&self) -> Vec<f64> {
        self.loads()
            .iter()
            .zip(&self.providers)
            .map(|(l, p)| l / p.capacity.max(f64::MIN_POSITIVE))
            .collect()
    }

    fn views(&self) -> Vec<ProviderView> {
        self.utilisations()
            .into_iter()
            .zip(&self.providers)
            .map(|(utilisation, p)| ProviderView {
                utilisation,
                up: p.up,
            })
            .collect()
    }

    /// Admit a flow: choose its provider under the active policy, track
    /// it, and return the chosen provider's id and RLOC. Returns `None`
    /// when every provider is down.
    pub fn admit_flow(
        &mut self,
        flow: (Ipv4Address, Ipv4Address),
        rate: f64,
    ) -> Option<(ProviderId, Ipv4Address)> {
        let views = self.views();
        let p = self.policy.select(&views)?;
        self.flows.insert(
            Self::key(flow),
            TrackedFlow {
                key: flow,
                rate,
                provider: p,
            },
        );
        self.flows_admitted += 1;
        Some((p, self.providers[p].rloc))
    }

    /// The ingress RLOC the engine would choose *right now* without
    /// tracking a flow (the paper's step 1: reverse-mapping choice).
    pub fn peek_choice(&self) -> Option<(ProviderId, Ipv4Address)> {
        let p = self.policy.select(&self.views())?;
        Some((p, self.providers[p].rloc))
    }

    /// Reachability-driven repath: mark provider `dead` down and move
    /// every flow it carried to a surviving provider chosen by the
    /// active policy. Returns the applied moves (empty when every other
    /// provider is also down — the flows then stay stranded, which the
    /// caller can detect via [`IrcEngine::loads`]). This is the PCE's
    /// reaction to a locator failure (DESIGN.md §7).
    pub fn repath(&mut self, dead: ProviderId) -> Vec<Move> {
        self.providers[dead].up = false;
        let stranded: Vec<(Ipv4Address, Ipv4Address)> = self
            .flows
            .values()
            .filter(|f| f.provider == dead)
            .map(|f| f.key)
            .collect();
        let mut moves = Vec::new();
        for key in stranded {
            // Re-select per flow so balancing policies spread the
            // displaced load instead of dog-piling one survivor.
            let views = self.views();
            let Some(new_p) = self.policy.select(&views) else {
                break;
            };
            self.flows
                .get_mut(&Self::key(key))
                .expect("tracked")
                .provider = new_p;
            moves.push(Move {
                flow_key: key,
                new_provider: new_p,
                new_rloc: self.providers[new_p].rloc,
            });
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn engine(policy: SelectionPolicy) -> IrcEngine {
        IrcEngine::new(
            vec![
                Provider::new("A", a([10, 0, 0, 1]), 100.0),
                Provider::new("B", a([11, 0, 0, 1]), 50.0),
            ],
            policy,
        )
    }

    fn flow(i: u8) -> (Ipv4Address, Ipv4Address) {
        (a([100, 0, 0, i]), a([101, 0, 0, i]))
    }

    #[test]
    fn admit_tracks_load() {
        let mut e = engine(SelectionPolicy::WeightedBalance);
        for i in 0..10 {
            e.admit_flow(flow(i), 5.0).unwrap();
        }
        assert_eq!(e.flows_admitted, 10);
        let loads = e.loads();
        assert!((loads.iter().sum::<f64>() - 50.0).abs() < 1e-9);
        // Balanced by utilisation, both sides carry traffic.
        assert!(loads[0] > 0.0 && loads[1] > 0.0);
    }

    #[test]
    fn down_provider_failover() {
        let mut e = engine(SelectionPolicy::MinCost);
        // The first provider that is up is A (index 0).
        assert_eq!(e.admit_flow(flow(1), 1.0).unwrap().0, 0);
        e.set_up(0, false);
        assert_eq!(e.admit_flow(flow(2), 1.0).unwrap().0, 1);
        e.set_up(1, false);
        assert!(e.admit_flow(flow(3), 1.0).is_none());
    }

    #[test]
    fn repath_moves_flows_off_dead_provider() {
        let mut e = engine(SelectionPolicy::MinCost);
        // MinCost puts everything on A (index 0).
        for i in 0..4 {
            e.admit_flow(flow(i), 5.0).unwrap();
        }
        let moves = e.repath(0);
        assert_eq!(moves.len(), 4);
        assert!(moves.iter().all(|m| m.new_provider == 1));
        assert!(moves.iter().all(|m| m.new_rloc == a([11, 0, 0, 1])));
        let loads = e.loads();
        assert_eq!(loads[0], 0.0, "dead provider carries nothing");
        assert!((loads[1] - 20.0).abs() < 1e-9);
        // New admissions avoid the dead provider too.
        assert_eq!(e.admit_flow(flow(9), 1.0).unwrap().0, 1);
        // Everything down: flows stay stranded, no moves.
        let mut all_down = engine(SelectionPolicy::MinCost);
        all_down.admit_flow(flow(1), 1.0).unwrap();
        all_down.set_up(1, false);
        assert!(all_down.repath(0).is_empty());
    }

    #[test]
    fn peek_does_not_track() {
        let mut e = engine(SelectionPolicy::MinCost);
        assert!(e.peek_choice().is_some());
        assert!(e.loads().iter().all(|&l| l == 0.0));
        // peek and admit agree.
        let peeked = e.peek_choice().unwrap();
        let admitted = e.admit_flow(flow(9), 1.0).unwrap();
        assert_eq!(peeked, admitted);
    }
}
