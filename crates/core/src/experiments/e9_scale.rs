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

use crate::experiments::{cross, run, Cell, Grid, Horizon, RunRecord};
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use netsim::Ns;

/// Every cell runs until 30 s after its last flow starts.
pub const HORIZON: Horizon = Horizon::AfterLastFlow(Ns::from_secs(30));

/// Destination-site counts of the sweep.
pub const SITE_COUNTS: [usize; 3] = [2, 8, 32];

/// Destination EIDs per site.
pub const HOSTS_PER_SITE: usize = 4;

/// Run `multi_site(cp, n_sites, hosts_per_site)` under its default
/// PoissonZipf workload — the cell runner E9 and E11 share.
pub fn run_scale(cp: CpKind, n_sites: usize, hosts_per_site: usize, seed: u64) -> RunRecord {
    run(
        &ScenarioSpec::multi_site(cp, n_sites, hosts_per_site),
        seed,
        HORIZON,
    )
}

/// The E9 row of a scale run; E11 inserts its `ctl_per_flow` column
/// after `ctl_msgs`.
pub fn scale_row(cp: CpKind, n_sites: usize, r: &RunRecord) -> Vec<Cell> {
    vec![
        Cell::str(cp.label()),
        Cell::usize(n_sites),
        Cell::usize(r.flows.len()),
        Cell::u64(r.sent()),
        Cell::u64(r.delivered),
        Cell::u64(r.miss_drops),
        // Mean and worst ITR wait of packets held during resolution:
        // 0 when the plane never holds packets (push systems) or drops
        // them instead.
        Cell::f64(r.mean_queue_delay_ms(), 1),
        Cell::f64(r.max_queue_delay_ms(), 1),
        Cell::u64(r.tally.control_msgs),
        Cell::u64(r.tally.itr_state_entries),
        Cell::u64(r.tally.push_bytes),
    ]
}

/// E9: every [`CpKind`] at every site count.
pub fn grid() -> Grid<(CpKind, usize)> {
    Grid {
        name: "e9",
        title: "Mapping-system scale sweep (N destination sites)",
        key: "scale",
        heading: "E9: mapping-system scale — N destination sites, Zipf cross-site popularity",
        columns: &[
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
        cells: cross(&SITE_COUNTS, &CpKind::all()),
        row: |&(cp, n), seed| scale_row(cp, n, &run_scale(cp, n, HOSTS_PER_SITE, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(cp: CpKind, n: usize, seed: u64) -> RunRecord {
        run_scale(cp, n, HOSTS_PER_SITE, seed)
    }

    #[test]
    fn pce_never_drops_or_waits_at_any_scale() {
        for n in [2, 8] {
            let r = cell(CpKind::Pce, n, 1);
            assert_eq!(r.miss_drops, 0, "{r:?}");
            assert_eq!(r.mean_queue_delay_ms(), 0.0, "{r:?}");
            assert_eq!(r.delivered, r.sent(), "{r:?}");
        }
    }

    #[test]
    fn nerd_push_bytes_grow_with_sites() {
        let small = cell(CpKind::Nerd, 2, 1).tally.push_bytes;
        let big = cell(CpKind::Nerd, 8, 1).tally.push_bytes;
        assert!(small > 0);
        assert!(
            big > 2 * small,
            "push bytes must scale superlinearly with sites (db × subscribers): \
             small {small} big {big}"
        );
    }

    #[test]
    fn drop_variant_loses_packets_queue_variant_waits() {
        let drop = cell(CpKind::LispDrop, 2, 1);
        assert!(drop.miss_drops > 0, "{drop:?}");
        let queue = cell(CpKind::LispQueue, 2, 1);
        assert_eq!(queue.miss_drops, 0, "{queue:?}");
        assert!(queue.mean_queue_delay_ms() > 10.0, "{queue:?}");
        assert_eq!(queue.delivered, queue.sent(), "{queue:?}");
    }

    #[test]
    fn every_cp_runs_at_32_sites() {
        // The acceptance gate: N = 32 under every control plane builds
        // and makes forward progress.
        for cp in CpKind::all() {
            let r = cell(cp, 32, 2);
            assert!(r.sent() > 0, "{}: {r:?}", cp.label());
            assert!(
                r.delivered > 0,
                "{}: at least some packets must arrive: {r:?}",
                cp.label()
            );
        }
    }
}
