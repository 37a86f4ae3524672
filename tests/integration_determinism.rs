//! Integration: bit-for-bit reproducibility — the whole Fig. 1 world,
//! every control plane, same seed ⇒ identical fingerprint (trace,
//! counters, event count, clock); different seed with randomized
//! workload ⇒ different schedule. Also pins determinism for a
//! non-Fig.1 multi-site spec (same spec + seed ⇒ identical fingerprints).

use netsim::Ns;
use pcelisp::hosts::FlowMode;
use pcelisp::scenario::{flow_script, CpKind};
use pcelisp::spec::{ScenarioSpec, World};
use pcelisp::workload::PoissonArrivals;

/// Everything a run emits that the determinism contract covers:
/// rendered trace, sorted counters, events processed, final clock.
type Fingerprint = (String, Vec<(String, u64)>, u64, Ns);

fn fingerprint(world: &World) -> Fingerprint {
    let counters = world.sim.counters().sorted();
    (
        world.sim.trace.render(),
        counters
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        world.sim.events_processed(),
        world.sim.now(),
    )
}

fn run_fig1(cp: CpKind, seed: u64) -> Fingerprint {
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_flows(flow_script(
                &[Ns::ZERO, Ns::from_ms(100)],
                4,
                FlowMode::Udp {
                    packets: 5,
                    interval: Ns::from_ms(2),
                    size: 300,
                },
            ));
        })
        .build(seed);
    world.sim.trace.enable();
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(20));
    fingerprint(&world)
}

#[test]
fn same_seed_same_trace_all_control_planes() {
    for cp in CpKind::all() {
        let a = run_fig1(cp, 42);
        let b = run_fig1(cp, 42);
        assert_eq!(a, b, "nondeterminism under {}", cp.label());
        assert!(!a.0.is_empty());
    }
}

#[test]
fn multi_site_spec_same_seed_same_trace() {
    let run = |seed: u64| -> Fingerprint {
        let mut world = ScenarioSpec::multi_site(CpKind::Pce, 6, 4).build(seed);
        world.sim.trace.enable();
        world.schedule_all_flows();
        let horizon = world.last_flow_start() + Ns::from_secs(30);
        world.sim.run_until(horizon);
        fingerprint(&world)
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "multi-site spec must be deterministic by seed");
    assert!(!a.0.is_empty());
    let c = run(43);
    assert_ne!(
        a.0, c.0,
        "a different seed must reshuffle the Zipf workload"
    );
}

#[test]
fn workload_differs_across_seeds() {
    let a = PoissonArrivals::new(1, 10.0).take(50);
    let b = PoissonArrivals::new(2, 10.0).take(50);
    assert_ne!(a, b);
}
