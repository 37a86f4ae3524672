//! Integration: failure injection — random loss on every WAN link. The
//! PCE control plane must degrade gracefully (DNS retransmission
//! recovers the resolution; no deadlock), and vanilla LISP's drop counts
//! rise with the loss rate. Also replays a mapping-node crash/restart
//! world byte for byte.

use netsim::Ns;
use pcelisp::hosts::{FlowMode, FlowSpec};
use pcelisp::scenario::{flow_script, CpKind};
use pcelisp::spec::{DynamicsSpec, ReplicaSpec, RetrySpec, ScenarioSpec};

fn run_lossy(cp: CpKind, drop_prob: f64, seed: u64) -> (bool, u64) {
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_wan_drop_prob(drop_prob);
            s.set_flows(flow_script(
                &[Ns::ZERO],
                4,
                FlowMode::Udp {
                    packets: 10,
                    interval: Ns::from_ms(5),
                    size: 300,
                },
            ));
        })
        .build(seed);
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(120));
    let answered = world.records()[0].t_answer.is_some();
    let fault_drops = world.sim.total_fault_drops();
    (answered, fault_drops)
}

#[test]
fn pce_survives_moderate_loss() {
    // 10% loss: DNS retransmission machinery must still resolve. Try a
    // few seeds; the resolver gives up only if every retry of some step
    // is lost, which is vanishingly unlikely across seeds.
    let mut successes = 0;
    let mut total_faults = 0;
    for seed in 1..=5 {
        let (answered, faults) = run_lossy(CpKind::Pce, 0.10, seed);
        total_faults += faults;
        if answered {
            successes += 1;
        }
    }
    assert!(total_faults > 0, "loss must actually occur across the runs");
    assert!(successes >= 3, "only {successes}/5 lossy runs resolved");
}

#[test]
fn zero_loss_control() {
    let (answered, faults) = run_lossy(CpKind::Pce, 0.0, 1);
    assert!(answered);
    assert_eq!(faults, 0);
}

/// A clean Fig. 1 PCE world: no xTR counts a malformed message (a
/// CONS wrapper or a step-6 `DnsMapping` reaching an xTR).
#[test]
fn clean_pce_world_has_no_malformed_messages() {
    let mut world = ScenarioSpec::fig1(CpKind::Pce)
        .with(|s| {
            s.set_flows(flow_script(
                &[Ns::ZERO],
                4,
                FlowMode::Udp {
                    packets: 5,
                    interval: Ns::from_ms(5),
                    size: 300,
                },
            ));
        })
        .build(3);
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(30));
    for x in world.all_xtrs() {
        assert_eq!(world.sim.node_ref::<lispdp::Xtr>(x).stats.malformed, 0);
    }
}

/// A mapping-node crash/restart cycle (E13's outage) with the warm
/// standbys armed: `NodeAdmin` events, down-drops, takeover timers and
/// failover re-routes must replay identically — trace, counters, event
/// count and clock.
#[test]
fn node_crash_world_replays_byte_identically() {
    let run = |cp: CpKind| {
        let mut spec = ScenarioSpec::multi_site(cp, 2, 2);
        let flows: Vec<FlowSpec> = (0..2)
            .map(|site| FlowSpec {
                start: Ns::from_ms(10 * (site + 1) as u64),
                qname: lispwire::dnswire::Name::parse_str(
                    &spec.topology.host_name(&spec.topology.sites[1 + site], 0),
                )
                .expect("valid"),
                mode: FlowMode::Udp {
                    packets: 40,
                    interval: Ns::from_ms(25),
                    size: 256,
                },
            })
            .collect();
        spec.set_flows(flows);
        spec.dynamics = Some(DynamicsSpec::mapsys_outage(
            "S",
            Ns::from_ms(1500),
            Ns::from_ms(4000),
        ));
        spec.replicas = Some(ReplicaSpec::default());
        spec.retry = Some(RetrySpec {
            retransmit: Some(Ns::from_ms(500)),
            max_tries: Some(2),
            cooldown: Some(Ns::from_secs(1)),
            ..RetrySpec::default()
        });
        let mut world = spec.build(7);
        world.sim.trace.enable();
        world.schedule_all_flows();
        world.sim.run_until(Ns::from_secs(8));
        let counters: Vec<(String, u64)> = world
            .sim
            .counters()
            .sorted()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        (
            world.sim.trace.render(),
            counters,
            world.sim.events_processed(),
            world.sim.now(),
        )
    };
    for cp in [CpKind::Pce, CpKind::LispQueue] {
        let first = run(cp);
        assert_eq!(first, run(cp), "nondeterminism under {}", cp.label());
        assert!(!first.0.is_empty(), "workload produced no trace");
    }
}
