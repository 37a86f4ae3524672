//! **E7 — two-way mapping completion (paper §2, after step 8).**
//!
//! When the first data packet reaches the destination ETR, it installs
//! the return mapping, multicasts it to its peer xTRs and updates the
//! PCE database. This experiment measures how long each of those takes
//! after the first decapsulation, and verifies correctness under
//! concurrent flows.

use crate::experiments::{Cell, Section, Sections};
use crate::hosts::FlowMode;
use crate::pce::Pce;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use lispdp::Xtr;
use netsim::Ns;

/// Run the experiment with `concurrent_flows` flows, 50 ms apart: the
/// milestone times of the first flow's reverse mapping, then the
/// concurrent phase's outcome.
pub fn run_reverse(concurrent_flows: usize, seed: u64) -> Section {
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
    let decap = trace.first("decap 100.0.0.5").expect("decap traced");
    let installs = trace.find("installed flow 101.");
    let local = installs.first().expect("local install traced");
    // The peer install is the first install at a node other than the
    // decapsulating one.
    let peer = installs
        .iter()
        .find(|e| e.node != decap.node)
        .expect("peer install traced");
    let db_update = trace.time_of("database updated").expect("db update traced");

    // Every flow's reverse entry must exist at both D-side xTRs.
    let host_s = world.client().host_addr;
    let dests: Vec<_> = world.records().iter().filter_map(|r| r.dest).collect();
    let complete = !dests.is_empty()
        && world.site("D").xtrs.iter().all(|&x| {
            let flows = &world.sim.node_ref::<Xtr>(x).flows;
            dests.iter().all(|&d| flows.contains_key(&(d, host_s)))
        });
    let pce_d = world.site("D").pce.expect("pce world");
    let db_entries = world.sim.node_ref::<Pce>(pce_d).db.len();

    let mut s = Section::new(
        "reverse",
        "E7: reverse-mapping completion after first packet at ETR",
        &["milestone", "t_ms", "delta_from_decap_ms"],
    );
    for (label, at) in [
        ("first decap at ETR", decap.t),
        ("local return-flow install", local.t),
        ("peer xTR install (multicast)", peer.t),
        ("PCE database update", db_update),
    ] {
        s.row(vec![
            Cell::str(label),
            Cell::f64(at.as_ms_f64(), 3),
            Cell::f64(at.saturating_sub(decap.t).as_ms_f64(), 3),
        ]);
    }
    s.row(vec![
        Cell::str("concurrent flows"),
        Cell::usize(n),
        Cell::empty(),
    ]);
    s.row(vec![
        Cell::str("reverse entries complete"),
        Cell::bool(complete),
        Cell::empty(),
    ]);
    s.row(vec![
        Cell::str("PCE db entries"),
        Cell::usize(db_entries),
        Cell::empty(),
    ]);
    s
}

/// The registry entry for E7 (runs with 4 concurrent flows).
pub fn experiment() -> Sections {
    Sections {
        name: "e7",
        title: "Two-way (reverse) mapping completion",
        run: |seed, _jobs| vec![run_reverse(4, seed)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Value;

    /// Rows of the section: the four milestones, then flows, the
    /// completeness flag and the PCE database size.
    fn complete(s: &Section) -> bool {
        s.rows[5][1].value == Value::Bool(true)
    }

    #[test]
    fn single_flow_completes_reverse() {
        let s = run_reverse(1, 1);
        let t = |row| s.num(row, "t_ms").unwrap();
        assert!(t(1) <= t(2), "local install after peer install: {s:?}");
        assert!(t(2) >= t(0), "peer install before decap: {s:?}");
        assert!(complete(&s), "{s:?}");
        // Sync crosses the site LAN: well under 1 ms after decap.
        let delta = s.num(2, "delta_from_decap_ms").unwrap();
        assert!(delta < 1.0, "peer sync took {delta} ms");
        assert!(t(6) >= 1.0);
    }

    #[test]
    fn concurrent_flows_all_complete() {
        let s = run_reverse(6, 2);
        assert!(complete(&s), "{s:?}");
        assert!(s.num(6, "t_ms").unwrap() >= 6.0, "{s:?}");
    }
}
