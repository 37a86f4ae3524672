//! **E8 — control-plane overhead: messages, state, propagation.**
//!
//! For each control plane, a burst of flows is run and the control-plane
//! cost is tallied: control messages exchanged, mapping state held at
//! border routers, and state held in the control plane itself. This is
//! the axis on which NERD (global database everywhere) and the PCE
//! control plane (per-active-flow state, domain-local database) sit at
//! opposite ends — the paper's implicit scaling argument.

use crate::experiments::{run, Cell, Grid, Horizon, QUEUE};
use crate::hosts::FlowMode;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use netsim::Ns;

/// How long every E8 cell runs.
pub const HORIZON: Horizon = Horizon::At(Ns::from_secs(120));

/// One plane's burst: `n_flows` UDP flows 300 ms apart over eight
/// destination hosts, pull planes queueing.
pub fn spec(cp: CpKind, n_flows: usize) -> ScenarioSpec {
    let starts: Vec<Ns> = (0..n_flows).map(|i| Ns::from_ms(300 * i as u64)).collect();
    ScenarioSpec::fig1(cp).with(|s| {
        s.set_dest_count(8);
        s.set_flows(flow_script(
            &starts,
            8,
            FlowMode::Udp {
                packets: 3,
                interval: Ns::from_ms(2),
                size: 300,
            },
        ));
        s.pull_miss_policy = Some(QUEUE);
    })
}

/// E8: a burst of 12 flows per plane.
pub fn grid() -> Grid<CpKind> {
    Grid {
        name: "e8",
        title: "Control-plane overhead: messages and state",
        key: "overhead",
        heading: "E8: control-plane overhead per flow burst",
        columns: &[
            "cp",
            "flows",
            "ctl_msgs",
            "itr_state",
            "cp_state",
            "push_bytes",
        ],
        cells: vec![
            CpKind::LispQueue,
            CpKind::Alt { hops: 4 },
            CpKind::Cons { cdr_depth: 1 },
            CpKind::Nerd,
            CpKind::Pce,
        ],
        row: |&cp, seed| {
            let t = run(&spec(cp, 12), seed, HORIZON).tally;
            vec![
                Cell::str(cp.label()),
                Cell::usize(12),
                Cell::u64(t.control_msgs),
                Cell::u64(t.itr_state_entries),
                Cell::u64(t.cp_state_entries),
                Cell::u64(t.push_bytes),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::CpTally;

    fn cell(cp: CpKind, n_flows: usize) -> CpTally {
        run(&spec(cp, n_flows), 1, HORIZON).tally
    }

    #[test]
    fn nerd_pushes_bytes_others_dont() {
        let nerd = cell(CpKind::Nerd, 6);
        assert!(nerd.push_bytes > 0, "{nerd:?}");
        let pce = cell(CpKind::Pce, 6);
        assert_eq!(pce.push_bytes, 0, "{pce:?}");
    }

    #[test]
    fn nerd_state_is_global_everywhere() {
        let nerd = cell(CpKind::Nerd, 6);
        // 4 xTRs × 2 records = 8 ITR-side entries regardless of flows.
        assert!(nerd.itr_state_entries >= 8, "{nerd:?}");
    }

    #[test]
    fn pce_state_tracks_flows() {
        let small = cell(CpKind::Pce, 2);
        let big = cell(CpKind::Pce, 8);
        assert!(
            big.itr_state_entries > small.itr_state_entries,
            "small {small:?} big {big:?}"
        );
        assert!(big.cp_state_entries >= small.cp_state_entries);
    }

    #[test]
    fn overlay_cps_cost_more_messages_per_flow() {
        let mrms = cell(CpKind::LispQueue, 6);
        let cons = cell(CpKind::Cons { cdr_depth: 2 }, 6);
        assert!(
            cons.control_msgs > mrms.control_msgs,
            "mrms {mrms:?} cons {cons:?}"
        );
    }
}
