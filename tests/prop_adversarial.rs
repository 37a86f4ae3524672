//! Property: adversarial worlds keep the determinism contract
//! (DESIGN.md §8/§10). Attack scripts are compiled at build time and
//! scheduled through the simulator's `(time, seq)` timer order, so a
//! flood scenario must replay byte-identically for any seed, defended or
//! not — and the E12 report must not depend on the sweep's `--jobs`
//! level.

use netsim::Ns;
use pcelisp::prelude::*;
use proptest::prelude::*;

fn flood_trace(seed: u64, defended: bool) -> String {
    // A deliberately small world: every proptest case runs two of them.
    let mut world = ScenarioSpec::multi_site(CpKind::LispQueue, 3, 2)
        .with(|s| {
            s.eid_space = Some(vec![Prefix::new(Ipv4Address::new(120, 0, 0, 0), 8)]);
            s.cache = CacheSpec::bounded(16, EvictionPolicy::Lru).with_sweep();
            if defended {
                s.defense = DefenseSpec::armed();
            }
            s.attackers = vec![AttackerSpec::MapRequestFlood {
                rate_per_sec: 100.0,
                packets: 40,
            }];
        })
        .build(seed);
    world.sim.trace.enable();
    world.schedule_all_flows();
    let horizon = world.last_flow_start() + Ns::from_secs(10);
    world.sim.run_until(horizon);
    world.sim.trace.render()
}

proptest! {
    #[test]
    fn flood_world_replays_byte_identically(seed in 1u64..10_000, defended in any::<bool>()) {
        let a = flood_trace(seed, defended);
        let b = flood_trace(seed, defended);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a, b, "flood scenario diverged for seed {}", seed);
    }
}

#[test]
fn flood_schedule_depends_on_the_seed() {
    let a = flood_trace(1, false);
    let b = flood_trace(2, false);
    assert_ne!(a, b, "different seeds must reshuffle workload and scans");
}

// The E12 sweep fans cells across a worker pool; the report must be
// byte-identical at any worker count (`--jobs 1` vs `--jobs 8`).
#[test]
fn e12_report_is_jobs_invariant() {
    let render = |jobs: usize| {
        let r = experiments::by_name("e12")
            .expect("registered")
            .run(1, jobs);
        r.tables()
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(1), render(8), "E12 report depends on --jobs");
}
