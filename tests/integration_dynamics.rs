//! Integration: the dynamics subsystem preserves the determinism
//! contract (DESIGN.md §2/§7) and the link-failure transport semantics.
//!
//! * Property: any seed, with a full `DynamicsSpec` enabled (locator
//!   failure, probing, link churn), replays byte-identically.
//! * Regression: a downed link never delivers packets scheduled after
//!   the failure instant, even when they interleave with in-flight
//!   deliveries and a later recovery.

use netsim::Ns;
use pcelisp::hosts::{FlowMode, FlowSpec, ServerHost};
use pcelisp::scenario::CpKind;
use pcelisp::spec::{DynEventKind, DynamicsSpec, ScenarioSpec};
use proptest::prelude::*;

/// A failure-heavy spec: RLOC failure at 1.5 s plus extra link churn on
/// the client site's second provider.
fn dynamic_spec(cp: CpKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::multi_site(cp, 2, 2);
    let qname = spec.topology.host_name(&spec.topology.sites[1], 0);
    spec.set_flows(vec![FlowSpec {
        start: Ns::ZERO,
        qname: lispwire::dnswire::Name::parse_str(&qname).expect("valid"),
        mode: FlowMode::Udp {
            packets: 60,
            interval: Ns::from_ms(50),
            size: 200,
        },
    }]);
    spec.dynamics = Some(
        DynamicsSpec::rloc_failure("D0", "D0a", Ns::from_ms(1500))
            .with_event(
                Ns::from_ms(800),
                DynEventKind::LinkDown {
                    site: "S".into(),
                    provider: "Sb".into(),
                },
            )
            .with_event(
                Ns::from_ms(2200),
                DynEventKind::LinkUp {
                    site: "S".into(),
                    provider: "Sb".into(),
                },
            ),
    );
    spec
}

fn run_trace(cp: CpKind, seed: u64) -> String {
    let mut world = dynamic_spec(cp).build(seed);
    world.sim.trace.enable();
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(8));
    world.sim.trace.render()
}

proptest! {
    /// Two runs of the same seed with dynamics enabled produce
    /// byte-identical traces, for a push plane and a pull plane.
    #[test]
    fn dynamics_same_seed_same_trace(seed in 0u64..1_000) {
        for cp in [CpKind::Pce, CpKind::LispQueue] {
            let a = run_trace(cp, seed);
            let b = run_trace(cp, seed);
            prop_assert!(!a.is_empty());
            prop_assert_eq!(a, b, "nondeterministic dynamics under {}", cp.label());
        }
    }
}

/// A downed link never delivers packets scheduled after the failure
/// instant: every post-failure arrival at the destination must have
/// crossed the *surviving* provider link, and during the window where
/// the dead link's in-flight packets have drained but recovery has not
/// happened yet, nothing arrives at all.
#[test]
fn downed_link_never_delivers_post_failure_sends() {
    let t_fail = Ns::from_ms(1500);
    let mut spec = ScenarioSpec::multi_site(CpKind::Pce, 2, 2);
    let qname = spec.topology.host_name(&spec.topology.sites[1], 0);
    spec.set_flows(vec![FlowSpec {
        start: Ns::ZERO,
        qname: lispwire::dnswire::Name::parse_str(&qname).expect("valid"),
        mode: FlowMode::Udp {
            packets: 60,
            interval: Ns::from_ms(50),
            size: 200,
        },
    }]);
    // Raw link failure, no control-plane reaction: traffic to D0's
    // primary locator must stop dead and never resume.
    spec.dynamics = Some(DynamicsSpec::new().with_event(
        t_fail,
        DynEventKind::LinkDown {
            site: "D0".into(),
            provider: "D0a".into(),
        },
    ));
    spec.pce_policy = pcelisp::spec::SelectionPolicy::MinCost;
    let mut world = spec.build(1);
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(8));

    let arrivals = world.udp_arrivals("D0");
    assert!(!arrivals.is_empty(), "flow must run before the failure");
    // In-flight horizon: WAN OWD (30 ms) + LAN hops; nothing sent after
    // t_fail may arrive, so arrivals stop within it.
    let horizon = t_fail + Ns::from_ms(100);
    let last = *arrivals.last().expect("non-empty");
    assert!(
        last <= horizon,
        "a packet sent after the failure instant was delivered at {last} \
         (failure at {t_fail}); the downed link must not carry it"
    );
    // The link admin event beat same-instant sends: the down-drop
    // counter accounts for every missing packet.
    let sent = u64::from(world.records()[0].data_sent);
    let delivered = world
        .sim
        .node_ref::<ServerHost>(world.site("D0").host)
        .total_udp();
    assert!(sent > delivered, "failure must strand packets");
    assert!(world.sim.total_down_drops() > 0);
}

/// Observable output of a run, for the metamorphic node-crash checks:
/// flow records, destination arrival times, and total delivery.
fn observables(spec: &ScenarioSpec, seed: u64) -> (String, Vec<Ns>, u64) {
    let mut world = spec.build(seed);
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(8));
    (
        format!("{:?}", world.records()),
        world.udp_arrivals("D0"),
        world.server_udp_received(),
    )
}

/// Flows to D0 only, so D1's per-site mapping nodes carry no traffic.
fn d0_only_spec(cp: CpKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::multi_site(cp, 2, 2);
    let qname = spec.topology.host_name(&spec.topology.sites[1], 0);
    spec.set_flows(vec![FlowSpec {
        start: Ns::from_ms(100),
        qname: lispwire::dnswire::Name::parse_str(&qname).expect("valid"),
        mode: FlowMode::Udp {
            packets: 40,
            interval: Ns::from_ms(50),
            size: 200,
        },
    }]);
    spec
}

proptest! {
    /// Metamorphic: a node crash scheduled *after* the run horizon is
    /// indistinguishable from no crash at all — the event never fires,
    /// so even the raw trace must match byte-for-byte.
    #[test]
    fn node_crash_after_horizon_is_invisible(seed in 0u64..500) {
        for cp in [CpKind::Pce, CpKind::Cons { cdr_depth: 1 }] {
            let base = d0_only_spec(cp);
            let crashed = base.clone().with(|s| {
                s.dynamics = Some(DynamicsSpec::mapsys_outage(
                    "S",
                    Ns::from_secs(100),
                    Ns::from_secs(101),
                ));
            });
            let a = observables(&base, seed);
            let b = observables(&crashed, seed);
            prop_assert_eq!(a, b, "post-horizon crash visible under {}", cp.label());
        }
    }

    /// Metamorphic: crashing a mapping node that serves no traffic
    /// (D1's CAR / PCE bump, while every flow targets D0) changes no
    /// observable output.
    #[test]
    fn crash_of_idle_mapping_node_is_invisible(seed in 0u64..500) {
        for cp in [CpKind::Pce, CpKind::Cons { cdr_depth: 1 }] {
            let base = d0_only_spec(cp);
            let crashed = base.clone().with(|s| {
                s.dynamics = Some(DynamicsSpec::mapsys_outage(
                    "D1",
                    Ns::from_ms(1000),
                    Ns::from_ms(2000),
                ));
            });
            let a = observables(&base, seed);
            let b = observables(&crashed, seed);
            prop_assert_eq!(a, b, "idle-node crash visible under {}", cp.label());
        }
    }
}

/// Regression: a re-registration due after a mapping node's crash and
/// restart applies exactly once. It was applied twice when the restart
/// re-armed a timer the crash had never dropped.
#[test]
fn update_after_a_restart_applies_once() {
    use mapsys::{MapResolver, NerdAuthority};
    use pcelisp::plane::MapSystem;
    for cp in [CpKind::Nerd, CpKind::LispQueue] {
        let mut spec = ScenarioSpec::multi_site(cp, 4, 2);
        // Coarse mappings: D0 registers its one EID prefix.
        assert!(!spec.fine_grained_mappings);
        let d0_prefixes = 1;
        spec.dynamics = Some(
            DynamicsSpec::mapsys_outage("S", Ns::from_secs(1), Ns::from_secs(2)).with_event(
                Ns::from_secs(3),
                DynEventKind::Remap {
                    site: "D0".into(),
                    provider: "D0b".into(),
                },
            ),
        );
        let mut world = spec.build(1);
        world.schedule_all_flows();
        world.sim.run_until(Ns::from_secs(5));
        match world.mapsys {
            MapSystem::Nerd { primary, .. } => {
                let auth = world.sim.node_ref::<NerdAuthority>(primary);
                assert_eq!(auth.updates_applied, d0_prefixes);
                // Boot push, restart push, one push for the update.
                assert_eq!(auth.push_rounds, 3);
            }
            MapSystem::Resolver { primary, .. } => {
                let mr = world.sim.node_ref::<MapResolver>(primary);
                assert_eq!(mr.updates_applied, d0_prefixes);
            }
            ref other => panic!("unexpected plane {other:?} under {}", cp.label()),
        }
    }
}
