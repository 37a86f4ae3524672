//! **E9 — mapping-system scale sweep across destination-site counts.**
//!
//! The paper evaluates one two-site figure; related work (Coras et al.
//! on mapping-cache scalability, LazyCtrl on control planes only
//! differentiating at scale) argues the interesting regime is *many*
//! sites. This experiment uses the declarative spec layer to grow the
//! world: N ∈ {2, 8, 32} destination sites, Zipf cross-site popularity,
//! and every control plane, comparing
//!
//! * **map-request latency** — how long the first packet of a missing
//!   flow waits at the ITR before a mapping exists (pull systems run
//!   their native policy: queueing variants report the measured wait,
//!   drop variants lose packets instead);
//! * **miss drops** — packets lost at ITRs while resolving;
//! * **control-plane message counts** — the E8 tally, which exposes how
//!   each design's cost scales with the number of sites (NERD pushes
//!   the whole database everywhere; PCE stays per-active-flow).

use crate::experiments::e8_overhead::control_plane_tally;
use crate::experiments::report::{Cell, ExpReport, Section};
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use crate::table::Table;
use lispdp::Xtr;
use netsim::Ns;

/// One (control plane, site count) measurement.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Control plane label.
    pub cp: String,
    /// Destination-site count.
    pub n_sites: usize,
    /// Flows generated (3 per destination site).
    pub flows: usize,
    /// UDP packets sent by the client.
    pub sent: u64,
    /// Packets delivered across all destination sites.
    pub delivered: u64,
    /// Packets dropped at ITRs for lack of a mapping.
    pub miss_drops: u64,
    /// Mean ITR wait of packets held during resolution (ms); 0 when the
    /// control plane never holds packets (push systems) or drops
    /// instead of queueing.
    pub mean_map_latency_ms: f64,
    /// Worst single-packet resolution wait (ms).
    pub max_map_latency_ms: f64,
    /// Control messages attributable to the mapping system (E8 tally).
    pub control_msgs: u64,
    /// Mapping state across all border routers after the run.
    pub itr_state_entries: u64,
    /// Database bytes pushed (NERD).
    pub push_bytes: u64,
}

/// E9 result.
#[derive(Debug, Clone, Default)]
pub struct ScaleResult {
    /// All rows, site-count-major.
    pub rows: Vec<ScaleRow>,
}

impl ScaleResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "scale",
            "E9: mapping-system scale — N destination sites, Zipf cross-site popularity",
            &[
                "cp",
                "n_sites",
                "flows",
                "sent",
                "delivered",
                "miss_drops",
                "mean_lat_ms",
                "max_lat_ms",
                "ctl_msgs",
                "itr_state",
                "push_bytes",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::usize(r.n_sites),
                Cell::usize(r.flows),
                Cell::u64(r.sent),
                Cell::u64(r.delivered),
                Cell::u64(r.miss_drops),
                Cell::f64(r.mean_map_latency_ms, 1),
                Cell::f64(r.max_map_latency_ms, 1),
                Cell::u64(r.control_msgs),
                Cell::u64(r.itr_state_entries),
                Cell::u64(r.push_bytes),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }

    /// Rows for one control plane, ordered by site count.
    pub fn rows_for(&self, cp: &str) -> Vec<&ScaleRow> {
        self.rows.iter().filter(|r| r.cp == cp).collect()
    }
}

/// Destination-site counts of the sweep.
pub const SITE_COUNTS: [usize; 3] = [2, 8, 32];

/// Destination EIDs per site.
pub const HOSTS_PER_SITE: usize = 4;

/// Run one (cp, n_sites) cell at the E9 host population.
pub fn run_scale_cell(cp: CpKind, n_sites: usize, seed: u64) -> ScaleRow {
    run_scale_cell_at(cp, n_sites, HOSTS_PER_SITE, seed)
}

/// Run one (cp, n_sites) cell with an explicit per-site host count —
/// the shared cell runner behind E9 and the E11 XL sweep.
pub fn run_scale_cell_at(cp: CpKind, n_sites: usize, hosts_per_site: usize, seed: u64) -> ScaleRow {
    let mut world = ScenarioSpec::multi_site(cp, n_sites, hosts_per_site).build(seed);
    world.schedule_all_flows();
    let horizon = world.last_flow_start() + Ns::from_secs(30);
    world.sim.run_until(horizon);

    let sent: u64 = world.records().iter().map(|r| u64::from(r.data_sent)).sum();
    let delivered = world.server_udp_received();
    let mut miss_drops = 0u64;
    let mut delays: Vec<Ns> = Vec::new();
    for x in world.all_xtrs() {
        let xtr = world.sim.node_ref::<Xtr>(x);
        miss_drops += xtr.stats.miss_drops;
        delays.extend(xtr.queue_delays.iter().copied());
    }
    let mean_map_latency_ms = if delays.is_empty() {
        0.0
    } else {
        delays.iter().map(|d| d.as_ms_f64()).sum::<f64>() / delays.len() as f64
    };
    let max_map_latency_ms = delays.iter().map(|d| d.as_ms_f64()).fold(0.0f64, f64::max);
    let tally = control_plane_tally(&world);
    let flows = world.records().len();

    ScaleRow {
        cp: cp.label().into_owned(),
        n_sites,
        flows,
        sent,
        delivered,
        miss_drops,
        mean_map_latency_ms,
        max_map_latency_ms,
        control_msgs: tally.control_msgs,
        itr_state_entries: tally.itr_state_entries,
        push_bytes: tally.push_bytes,
    }
}

/// Full sweep on up to `jobs` workers (`0` = auto): every [`CpKind`]
/// at every site count.
pub fn run_scale_jobs(seed: u64, jobs: usize) -> ScaleResult {
    let mut cells = Vec::new();
    for n in SITE_COUNTS {
        for cp in CpKind::all() {
            cells.push((cp, n));
        }
    }
    let rows = crate::experiments::sweep::Sweep::new("e9", cells).run(
        jobs,
        |&(cp, n)| format!("{}/n={n}", cp.label()),
        |&(cp, n)| run_scale_cell(cp, n, seed),
    );
    ScaleResult { rows }
}

/// Full sweep, serial.
pub fn run_scale(seed: u64) -> ScaleResult {
    run_scale_jobs(seed, 1)
}

/// The registry entry for E9.
pub struct E9Scale;

impl crate::experiments::Experiment for E9Scale {
    fn name(&self) -> &'static str {
        "e9"
    }
    fn title(&self) -> &'static str {
        "Mapping-system scale sweep (N destination sites)"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title()).with_section(run_scale_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_never_drops_or_waits_at_any_scale() {
        for n in [2, 8] {
            let row = run_scale_cell(CpKind::Pce, n, 1);
            assert_eq!(row.miss_drops, 0, "{row:?}");
            assert_eq!(row.mean_map_latency_ms, 0.0, "{row:?}");
            assert_eq!(row.delivered, row.sent, "{row:?}");
        }
    }

    #[test]
    fn nerd_push_bytes_grow_with_sites() {
        let small = run_scale_cell(CpKind::Nerd, 2, 1);
        let big = run_scale_cell(CpKind::Nerd, 8, 1);
        assert!(small.push_bytes > 0, "{small:?}");
        assert!(
            big.push_bytes > 2 * small.push_bytes,
            "push bytes must scale superlinearly with sites (db × subscribers): \
             small {} big {}",
            small.push_bytes,
            big.push_bytes
        );
    }

    #[test]
    fn drop_variant_loses_packets_queue_variant_waits() {
        let drop = run_scale_cell(CpKind::LispDrop, 2, 1);
        assert!(drop.miss_drops > 0, "{drop:?}");
        let queue = run_scale_cell(CpKind::LispQueue, 2, 1);
        assert_eq!(queue.miss_drops, 0, "{queue:?}");
        assert!(queue.mean_map_latency_ms > 10.0, "{queue:?}");
        assert_eq!(queue.delivered, queue.sent, "{queue:?}");
    }

    #[test]
    fn every_cp_runs_at_32_sites() {
        // The acceptance gate: N = 32 under every control plane builds
        // and makes forward progress.
        for cp in CpKind::all() {
            let row = run_scale_cell(cp, 32, 2);
            assert!(row.sent > 0, "{row:?}");
            assert!(
                row.delivered > 0,
                "{}: at least some packets must arrive: {row:?}",
                row.cp
            );
        }
    }
}
