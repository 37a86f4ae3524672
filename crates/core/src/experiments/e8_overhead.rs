//! **E8 — control-plane overhead: messages, state, propagation.**
//!
//! For each control plane, a burst of flows is run and the control-plane
//! cost is tallied: control messages exchanged, mapping state held at
//! border routers, and state held in the control plane itself. This is
//! the axis on which NERD (global database everywhere) and the PCE
//! control plane (per-active-flow state, domain-local database) sit at
//! opposite ends — the paper's implicit scaling argument.

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::FlowMode;
use crate::pce::Pce;
use crate::plane::MapSystem;
use crate::scenario::{flow_script, CpKind};
use crate::spec::{ScenarioSpec, World};
use crate::table::Table;
use lispdp::Xtr;
use mapsys::{AltRouter, ConsNode, MapResolver, NerdAuthority};
use netsim::Ns;

/// One row of the overhead comparison.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Control plane label.
    pub cp: String,
    /// Flows run.
    pub flows: usize,
    /// Control messages attributable to mapping resolution/distribution.
    pub control_msgs: u64,
    /// Mapping entries held across all border routers after the run.
    pub itr_state_entries: u64,
    /// Entries held by the control-plane infrastructure (MR table, NERD
    /// db, PCE db, overlay routing entries).
    pub cp_state_entries: u64,
    /// Database bytes pushed (NERD) — zero elsewhere.
    pub push_bytes: u64,
}

/// E8 result.
#[derive(Debug, Clone, Default)]
pub struct OverheadResult {
    /// All rows.
    pub rows: Vec<OverheadRow>,
}

impl OverheadResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "overhead",
            "E8: control-plane overhead per flow burst",
            &[
                "cp",
                "flows",
                "ctl_msgs",
                "itr_state",
                "cp_state",
                "push_bytes",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::usize(r.flows),
                Cell::u64(r.control_msgs),
                Cell::u64(r.itr_state_entries),
                Cell::u64(r.cp_state_entries),
                Cell::u64(r.push_bytes),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Control-plane cost tally of a finished world (shared by E8 and the
/// E9 scale sweep).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpTally {
    /// Control messages attributable to mapping resolution/distribution.
    pub control_msgs: u64,
    /// Mapping entries held across all border routers.
    pub itr_state_entries: u64,
    /// Entries held by the control-plane infrastructure.
    pub cp_state_entries: u64,
    /// Database bytes pushed (NERD).
    pub push_bytes: u64,
}

/// Tally the control-plane cost of a finished run.
pub fn control_plane_tally(world: &World) -> CpTally {
    let mut t = CpTally::default();
    let site_count = world.sites.len() as u64;
    for x in world.all_xtrs() {
        let xtr = world.sim.node_ref::<Xtr>(x);
        t.control_msgs += xtr.stats.map_requests_sent
            + xtr.stats.map_request_retries
            + xtr.stats.map_replies_received
            + xtr.stats.map_requests_answered
            + xtr.stats.reverse_syncs_sent
            + xtr.stats.flow_installs
            + xtr.stats.db_records_installed;
        t.itr_state_entries += xtr.cache.len() as u64 + xtr.flows.len() as u64;
    }
    match &world.mapsys {
        MapSystem::None => {}
        MapSystem::Resolver { primary, .. } => {
            let node = world.sim.node_ref::<MapResolver>(*primary);
            t.control_msgs += node.forwarded;
            t.cp_state_entries += site_count; // registered site prefixes in the MR table
        }
        MapSystem::Nerd { primary, .. } => {
            let node = world.sim.node_ref::<NerdAuthority>(*primary);
            t.control_msgs += node.chunks_sent;
            t.push_bytes = node.bytes_pushed;
            t.cp_state_entries += node.db_len() as u64;
        }
        MapSystem::Alt { chain, .. } => {
            for &id in chain {
                let node = world.sim.node_ref::<AltRouter>(id);
                t.control_msgs += node.overlay_hops + node.delivered;
                t.cp_state_entries += site_count; // overlay routing entries per router
            }
        }
        MapSystem::Cons { cars, cdrs, .. } => {
            for &id in cars.iter().chain(cdrs) {
                let node = world.sim.node_ref::<ConsNode>(id);
                t.control_msgs += node.overlay_hops + node.delivered + node.replies_relayed;
                t.cp_state_entries += site_count;
            }
        }
    }
    for site in &world.sites {
        if let Some(pce) = site.pce {
            let node = world.sim.node_ref::<Pce>(pce);
            t.control_msgs +=
                node.stats.pushes_sent + node.stats.dns_intercepts + node.stats.ipc_notices;
            t.cp_state_entries += node.db.len() as u64;
        }
    }
    t
}

/// Run one control plane.
pub fn run_overhead_cell(cp: CpKind, n_flows: usize, seed: u64) -> OverheadRow {
    let starts: Vec<Ns> = (0..n_flows).map(|i| Ns::from_ms(300 * i as u64)).collect();
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
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
        })
        .build(seed);
    world.override_pull_miss_policy(lispdp::MissPolicy::Queue { max_packets: 64 });
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(120));

    let t = control_plane_tally(&world);
    OverheadRow {
        cp: cp.label().into_owned(),
        flows: n_flows,
        control_msgs: t.control_msgs,
        itr_state_entries: t.itr_state_entries,
        cp_state_entries: t.cp_state_entries,
        push_bytes: t.push_bytes,
    }
}

/// Full comparison on up to `jobs` workers (`0` = auto).
pub fn run_overhead_jobs(seed: u64, jobs: usize) -> OverheadResult {
    let cells = vec![
        CpKind::LispQueue,
        CpKind::Alt { hops: 4 },
        CpKind::Cons { cdr_depth: 1 },
        CpKind::Nerd,
        CpKind::Pce,
    ];
    let rows = crate::experiments::sweep::Sweep::new("e8", cells).run(
        jobs,
        |cp| cp.label().into_owned(),
        |&cp| run_overhead_cell(cp, 12, seed),
    );
    OverheadResult { rows }
}

/// Full comparison, serial.
pub fn run_overhead(seed: u64) -> OverheadResult {
    run_overhead_jobs(seed, 1)
}

/// The registry entry for E8.
pub struct E8Overhead;

impl crate::experiments::Experiment for E8Overhead {
    fn name(&self) -> &'static str {
        "e8"
    }
    fn title(&self) -> &'static str {
        "Control-plane overhead: messages and state"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_overhead_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nerd_pushes_bytes_others_dont() {
        let nerd = run_overhead_cell(CpKind::Nerd, 6, 1);
        assert!(nerd.push_bytes > 0, "{nerd:?}");
        let pce = run_overhead_cell(CpKind::Pce, 6, 1);
        assert_eq!(pce.push_bytes, 0, "{pce:?}");
    }

    #[test]
    fn nerd_state_is_global_everywhere() {
        let nerd = run_overhead_cell(CpKind::Nerd, 6, 1);
        // 4 xTRs × 2 records = 8 ITR-side entries regardless of flows.
        assert!(nerd.itr_state_entries >= 8, "{nerd:?}");
    }

    #[test]
    fn pce_state_tracks_flows() {
        let small = run_overhead_cell(CpKind::Pce, 2, 1);
        let big = run_overhead_cell(CpKind::Pce, 8, 1);
        assert!(
            big.itr_state_entries > small.itr_state_entries,
            "small {small:?} big {big:?}"
        );
        assert!(big.cp_state_entries >= small.cp_state_entries);
    }

    #[test]
    fn overlay_cps_cost_more_messages_per_flow() {
        let mrms = run_overhead_cell(CpKind::LispQueue, 6, 1);
        let cons = run_overhead_cell(CpKind::Cons { cdr_depth: 2 }, 6, 1);
        assert!(
            cons.control_msgs > mrms.control_msgs,
            "mrms {mrms:?} cons {cons:?}"
        );
    }
}
