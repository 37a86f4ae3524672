//! **E7 — two-way mapping completion (paper §2, after step 8).**
//!
//! When the first data packet reaches the destination ETR, it installs
//! the return mapping, multicasts it to its peer xTRs and updates the
//! PCE database. This experiment measures how long each of those takes
//! after the first decapsulation, and verifies correctness under
//! concurrent flows.

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::FlowMode;
use crate::pce::Pce;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use crate::table::Table;
use lispdp::Xtr;
use netsim::Ns;

/// E7 result.
#[derive(Debug, Clone)]
pub struct ReverseResult {
    /// First decapsulation at the ETR.
    pub t_first_decap: Ns,
    /// Return mapping installed locally at the decapsulating ETR.
    pub t_local_install: Ns,
    /// Return mapping installed at the *peer* xTR (multicast received).
    pub t_peer_install: Ns,
    /// PCE database updated.
    pub t_db_update: Ns,
    /// Flows in the concurrent phase.
    pub concurrent_flows: usize,
    /// Reverse mappings present at both D-side xTRs after the run.
    pub reverse_entries_complete: bool,
    /// PCE database entries after the run.
    pub db_entries: usize,
}

impl ReverseResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "reverse",
            "E7: reverse-mapping completion after first packet at ETR",
            &["milestone", "t_ms", "delta_from_decap_ms"],
        );
        let base = self.t_first_decap;
        for (label, at) in [
            ("first decap at ETR", self.t_first_decap),
            ("local return-flow install", self.t_local_install),
            ("peer xTR install (multicast)", self.t_peer_install),
            ("PCE database update", self.t_db_update),
        ] {
            s.row(vec![
                Cell::str(label),
                Cell::f64(at.as_ms_f64(), 3),
                Cell::f64(at.saturating_sub(base).as_ms_f64(), 3),
            ]);
        }
        s.row(vec![
            Cell::str("concurrent flows"),
            Cell::usize(self.concurrent_flows),
            Cell::empty(),
        ]);
        s.row(vec![
            Cell::str("reverse entries complete"),
            Cell::bool(self.reverse_entries_complete),
            Cell::empty(),
        ]);
        s.row(vec![
            Cell::str("PCE db entries"),
            Cell::usize(self.db_entries),
            Cell::empty(),
        ]);
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Run the experiment with `concurrent_flows` flows.
pub fn run_reverse(concurrent_flows: usize, seed: u64) -> ReverseResult {
    let n = concurrent_flows.max(1);
    let starts: Vec<Ns> = (0..n).map(|i| Ns::from_ms(50 * i as u64)).collect();
    let mut world = ScenarioSpec::fig1(CpKind::Pce)
        .with(|s| {
            s.set_dest_count(n.max(4));
            s.set_flows(flow_script(
                &starts,
                n.max(4),
                FlowMode::Udp {
                    packets: 4,
                    interval: Ns::from_ms(2),
                    size: 300,
                },
            ));
        })
        .build(seed);
    world.sim.trace.enable();
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(60));

    let trace = &world.sim.trace;
    let t_first_decap = trace.time_of("decap 100.0.0.5").expect("decap traced");
    let t_local_install = trace
        .find("installed flow 101.")
        .first()
        .map(|e| e.t)
        .expect("local install traced");
    // The peer install is the first "installed flow 101." event at a node
    // other than the decapsulating one.
    let decap_node = trace
        .first("decap 100.0.0.5")
        .map(|e| e.node)
        .expect("decap node");
    let t_peer_install = trace
        .find("installed flow 101.")
        .iter()
        .find(|e| e.node != decap_node)
        .map(|e| e.t)
        .expect("peer install traced");
    let t_db_update = trace.time_of("database updated").expect("db update traced");

    // Verify every flow's reverse entry exists at both D-side xTRs.
    let host_s_addr = world.client().host_addr;
    let dest_of_flow: Vec<_> = world.records().iter().filter_map(|r| r.dest).collect();
    let mut complete = !dest_of_flow.is_empty();
    for &x in &world.site("D").xtrs {
        let xtr = world.sim.node_ref::<Xtr>(x);
        for dest in &dest_of_flow {
            if !xtr.flows.contains_key(&(*dest, host_s_addr)) {
                complete = false;
            }
        }
    }
    let pce_d = world.site("D").pce.expect("pce world");
    let db_entries = world.sim.node_ref::<Pce>(pce_d).db.len();

    ReverseResult {
        t_first_decap,
        t_local_install,
        t_peer_install,
        t_db_update,
        concurrent_flows: n,
        reverse_entries_complete: complete,
        db_entries,
    }
}

/// The registry entry for E7 (runs with 4 concurrent flows).
pub struct E7Reverse;

impl crate::experiments::Experiment for E7Reverse {
    fn name(&self) -> &'static str {
        "e7"
    }
    fn title(&self) -> &'static str {
        "Two-way (reverse) mapping completion"
    }
    fn run(&self, seed: u64, _jobs: usize) -> ExpReport {
        // A single cell: nothing to fan out.
        ExpReport::new(self.name(), self.title()).with_section(run_reverse(4, seed).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_completes_reverse() {
        let r = run_reverse(1, 1);
        assert!(r.t_local_install <= r.t_peer_install);
        assert!(r.t_peer_install >= r.t_first_decap);
        assert!(r.reverse_entries_complete, "{r:?}");
        // Sync crosses the site LAN: well under 1 ms after decap.
        let delta = r.t_peer_install.saturating_sub(r.t_first_decap);
        assert!(delta < Ns::from_ms(1), "peer sync took {delta}");
        assert!(r.db_entries >= 1);
    }

    #[test]
    fn concurrent_flows_all_complete() {
        let r = run_reverse(6, 2);
        assert!(r.reverse_entries_complete, "{r:?}");
        assert!(r.db_entries >= 6, "db has {} entries", r.db_entries);
    }
}
