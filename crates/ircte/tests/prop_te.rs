//! Property tests for the IRC engine.

use ircte::{IrcEngine, Provider, SelectionPolicy};
use lispwire::Ipv4Address;
use proptest::prelude::*;

proptest! {
    /// The engine's tracked loads always sum to the admitted rates, and
    /// a repath off a dead provider moves its load without losing any.
    #[test]
    fn engine_conserves_admitted_load(rates in prop::collection::vec(0.5f64..20.0, 1..25)) {
        let mut e = IrcEngine::new(
            vec![
                Provider::new("A", Ipv4Address::new(10, 0, 0, 1), 100.0),
                Provider::new("B", Ipv4Address::new(11, 0, 0, 1), 40.0),
            ],
            SelectionPolicy::WeightedBalance,
        );
        for (i, &r) in rates.iter().enumerate() {
            let flow = (Ipv4Address::from_u32(100 + i as u32), Ipv4Address::from_u32(200 + i as u32));
            e.admit_flow(flow, r);
        }
        let offered: f64 = rates.iter().sum();
        let carried: f64 = e.loads().iter().sum();
        prop_assert!((carried - offered).abs() < 1e-6);
        e.repath(0);
        let loads = e.loads();
        prop_assert_eq!(loads[0], 0.0);
        prop_assert!((loads[1] - offered).abs() < 1e-6);
    }
}
