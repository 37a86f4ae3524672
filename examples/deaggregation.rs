//! The paper's future-work scenario (§3): Latin America has "the world's
//! largest IPv4 de-aggregation factor" — many small, independently routed
//! prefixes. This example sweeps the number of de-aggregated destination
//! EIDs and compares how mapping state and push traffic scale:
//!
//! * **NERD** must push the *entire* database to every xTR: state and
//!   bytes grow linearly with de-aggregation, whether or not anyone talks
//!   to those destinations.
//! * The **PCE control plane** installs state per *active flow* only:
//!   cost follows traffic, not table size.
//!
//! ```sh
//! cargo run --release --example deaggregation
//! ```

use mapsys::NerdAuthority;
use pcelisp::hosts::FlowMode;
use pcelisp::prelude::*;
use pcelisp::scenario::flow_script;

fn run_cell(cp: CpKind, dest_count: usize, flows: usize) -> (u64, u64) {
    let starts: Vec<Ns> = (0..flows).map(|i| Ns::from_ms(300 * i as u64)).collect();
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_dest_count(dest_count);
            s.fine_grained_mappings = true; // de-aggregated /32 registrations
            s.set_flows(flow_script(
                &starts,
                dest_count,
                FlowMode::Udp {
                    packets: 2,
                    interval: Ns::from_ms(2),
                    size: 200,
                },
            ));
        })
        .build(1);
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(60));

    let mut itr_state = 0u64;
    for x in world.all_xtrs() {
        let xtr = world.sim.node_ref::<Xtr>(x);
        itr_state += xtr.cache.len() as u64 + xtr.flows.len() as u64;
    }
    let push_bytes = match world.mapsys {
        MapSystem::Nerd { primary, .. } => {
            world.sim.node_ref::<NerdAuthority>(primary).bytes_pushed
        }
        _ => 0,
    };
    (itr_state, push_bytes)
}

fn main() {
    let flows = 6;
    let mut table = Table::new(
        "De-aggregation sweep: xTR mapping state and pushed bytes vs prefix count",
        &[
            "dest_prefixes",
            "nerd_itr_state",
            "nerd_push_bytes",
            "pce_itr_state",
            "pce_push_bytes",
        ],
    );
    for dest_count in [8usize, 32, 96, 192] {
        let (nerd_state, nerd_bytes) = run_cell(CpKind::Nerd, dest_count, flows);
        let (pce_state, pce_bytes) = run_cell(CpKind::Pce, dest_count, flows);
        table.row(&[
            dest_count.to_string(),
            nerd_state.to_string(),
            nerd_bytes.to_string(),
            pce_state.to_string(),
            pce_bytes.to_string(),
        ]);
    }
    table.print();
    println!();
    println!(
        "NERD's cost tracks the de-aggregation factor (every xTR holds every\n\
         prefix); the PCE control plane's state tracks the {flows} active flows\n\
         regardless of how finely the destination space is sliced — the\n\
         property the paper's §3 future work is after."
    );
}
