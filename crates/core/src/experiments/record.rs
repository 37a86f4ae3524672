//! The one way an experiment cell runs a world and reads it back:
//! [`run`] builds a spec's world, schedules its flows, runs it to a
//! [`Horizon`] and returns a [`RunRecord`] — a plain value holding what
//! the row projections read. A counter only one experiment reads stays
//! in that experiment, read from the [`World`] ([`run_world`]).

use crate::hosts::FlowRecord;
use crate::pce::Pce;
use crate::plane::MapSystem;
use crate::spec::{ScenarioSpec, World};
use lispdp::Xtr;
use mapsys::{AltRouter, ConsNode, MapResolver, NerdAuthority};
use netsim::Ns;

/// When a cell's run stops.
#[derive(Debug, Clone, Copy)]
pub enum Horizon {
    /// At this simulated time.
    At(Ns),
    /// This long after the last scripted flow starts.
    AfterLastFlow(Ns),
}

/// Build `spec`'s world at `seed`, schedule every flow and run it to
/// `horizon`.
pub fn run_world(spec: &ScenarioSpec, seed: u64, horizon: Horizon) -> World {
    let mut world = spec.build(seed);
    world.schedule_all_flows();
    let until = match horizon {
        Horizon::At(t) => t,
        Horizon::AfterLastFlow(d) => world.last_flow_start() + d,
    };
    world.sim.run_until(until);
    world
}

/// [`run_world`], read back as a [`RunRecord`].
pub fn run(spec: &ScenarioSpec, seed: u64, horizon: Horizon) -> RunRecord {
    RunRecord::of(&run_world(spec, seed, horizon))
}

/// Control-plane cost of a world so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpTally {
    /// Control messages attributable to mapping resolution/distribution.
    pub control_msgs: u64,
    /// Mapping entries held across all border routers.
    pub itr_state_entries: u64,
    /// Entries held by the control-plane infrastructure (MR table, NERD
    /// db, PCE db, overlay routing entries).
    pub cp_state_entries: u64,
    /// Database bytes pushed (NERD) — zero elsewhere.
    pub push_bytes: u64,
}

/// What the experiments read of a world: its flows, deliveries, xTR
/// miss counters and queue delays summed over every xTR, and the
/// control-plane tally.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The client's flow records.
    pub flows: Vec<FlowRecord>,
    /// Data packets received by all destination hosts.
    pub delivered: u64,
    /// Packets dropped at ITRs for lack of a mapping.
    pub miss_drops: u64,
    /// Packets buffered at ITRs while resolving.
    pub queued: u64,
    /// How long each flushed packet waited at its ITR.
    pub queue_delays: Vec<Ns>,
    /// Control-plane cost.
    pub tally: CpTally,
}

impl RunRecord {
    /// Read a world (finished, or paused at a phase boundary).
    pub fn of(world: &World) -> Self {
        let mut r = RunRecord {
            flows: world.records(),
            delivered: world.server_udp_received(),
            miss_drops: 0,
            queued: 0,
            queue_delays: Vec::new(),
            tally: CpTally::default(),
        };
        let t = &mut r.tally;
        for x in world.all_xtrs() {
            let xtr = world.sim.node_ref::<Xtr>(x);
            let s = &xtr.stats;
            r.miss_drops += s.miss_drops;
            r.queued += s.queued;
            r.queue_delays.extend_from_slice(&xtr.queue_delays);
            t.control_msgs += s.map_requests_sent
                + s.map_request_retries
                + s.map_replies_received
                + s.map_requests_answered
                + s.reverse_syncs_sent
                + s.flow_installs
                + s.db_records_installed;
            t.itr_state_entries += xtr.cache.len() as u64 + xtr.flows.len() as u64;
        }
        let site_count = world.sites.len() as u64;
        match &world.mapsys {
            MapSystem::None => {}
            MapSystem::Resolver { primary, .. } => {
                t.control_msgs += world.sim.node_ref::<MapResolver>(*primary).forwarded;
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
        for pce in world.sites.iter().filter_map(|s| s.pce) {
            let node = world.sim.node_ref::<Pce>(pce);
            t.control_msgs +=
                node.stats.pushes_sent + node.stats.dns_intercepts + node.stats.ipc_notices;
            t.cp_state_entries += node.db.len() as u64;
        }
        r
    }

    /// Data packets the client sent, over all flows.
    pub fn sent(&self) -> u64 {
        self.flows.iter().map(|f| u64::from(f.data_sent)).sum()
    }

    /// Mean ITR wait of the flushed packets (ms); 0 when none waited.
    pub fn mean_queue_delay_ms(&self) -> f64 {
        if self.queue_delays.is_empty() {
            return 0.0;
        }
        let total: f64 = self.queue_delays.iter().map(|d| d.as_ms_f64()).sum();
        total / self.queue_delays.len() as f64
    }

    /// Longest single ITR wait (ms); 0 when none waited.
    pub fn max_queue_delay_ms(&self) -> f64 {
        self.queue_delays
            .iter()
            .max()
            .map_or(0.0, |d| d.as_ms_f64())
    }
}
