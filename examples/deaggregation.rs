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

use pcelisp::experiments::{run, Horizon};
use pcelisp::hosts::FlowMode;
use pcelisp::prelude::*;
use pcelisp::scenario::flow_script;

/// xTR mapping state and NERD push bytes of one run.
fn run_cell(cp: CpKind, dest_count: usize, flows: usize) -> (u64, u64) {
    let starts: Vec<Ns> = (0..flows).map(|i| Ns::from_ms(300 * i as u64)).collect();
    let spec = ScenarioSpec::fig1(cp).with(|s| {
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
    });
    let tally = run(&spec, 1, Horizon::At(Ns::from_secs(60))).tally;
    (tally.itr_state_entries, tally.push_bytes)
}

fn main() {
    let flows = 6;
    let mut table = Section::new(
        "deaggregation",
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
        table.row(vec![
            Cell::usize(dest_count),
            Cell::u64(nerd_state),
            Cell::u64(nerd_bytes),
            Cell::u64(pce_state),
            Cell::u64(pce_bytes),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "NERD's cost tracks the de-aggregation factor (every xTR holds every\n\
         prefix); the PCE control plane's state tracks the {flows} active flows\n\
         regardless of how finely the destination space is sliced — the\n\
         property the paper's §3 future work is after."
    );
}
