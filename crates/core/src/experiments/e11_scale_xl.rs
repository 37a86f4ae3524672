//! **E11 — extra-large mapping-system scale: up to 512 sites.**
//!
//! E9 stops at 32 destination sites; related work argues the regimes
//! that actually separate control-plane designs start far beyond that
//! (Coras et al. on mapping-cache scalability, LazyCtrl on control
//! planes at data-center scale). This experiment pushes the same
//! measurement to N ∈ {64, 128, 512} sites under the PoissonZipf
//! workload — a sweep that is only practical because the cells fan out
//! across the [`crate::experiments::Grid`] worker pool (DESIGN.md §8): the N=512 worlds dominate the wall-clock and run
//! concurrently with everything else.
//!
//! Three control planes bound the design space:
//!
//! * **lisp-queue** (pull) — *map-request latency*: how long first
//!   packets wait at the ITR while the mapping system resolves;
//! * **nerd** (push-everything) — *push-bytes blowup*: the database ×
//!   subscribers product, growing quadratically with the site count;
//! * **pce** (the paper) — *per-flow cost*: control messages stay
//!   proportional to active flows, not to the universe of sites.
//!
//! Rows reuse the E9 cell runner and row ([`run_scale`], [`scale_row`])
//! so the two experiments stay directly comparable; E11 adds the
//! derived `ctl_per_flow` column that makes the scaling argument
//! explicit.

use crate::experiments::e9_scale::{run_scale, scale_row};
use crate::experiments::{cross, Cell, Grid};
use crate::scenario::CpKind;

/// Destination-site counts: doubling then 4× steps, 2×–16× past E9's
/// top of 32.
pub const SITE_COUNTS: [usize; 3] = [64, 128, 512];

/// Destination EIDs per site (kept small: the axis under test is the
/// *site* count, and 512 sites × 2 hosts already yields 1024 EIDs).
pub const HOSTS_PER_SITE: usize = 2;

/// The control planes bounding the design space at scale.
pub const VARIANTS: [CpKind; 3] = [CpKind::LispQueue, CpKind::Nerd, CpKind::Pce];

/// E11: every variant at every XL site count.
pub fn grid() -> Grid<(CpKind, usize)> {
    Grid {
        name: "e11",
        title: "Extra-large scale sweep (up to 512 sites)",
        key: "scale_xl",
        heading:
            "E11: extra-large scale — N ∈ {64, 128, 512} destination sites, PoissonZipf workload",
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
            "ctl_per_flow",
            "itr_state",
            "push_bytes",
        ],
        cells: cross(&SITE_COUNTS, &VARIANTS),
        row: |&(cp, n), seed| {
            let r = run_scale(cp, n, HOSTS_PER_SITE, seed);
            let per_flow = r.tally.control_msgs as f64 / r.flows.len().max(1) as f64;
            let mut row = scale_row(cp, n, &r);
            row.insert(9, Cell::f64(per_flow, 1));
            row
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::e9_scale;

    #[test]
    fn pce_cost_is_per_flow_at_64_sites() {
        let r = run_scale(CpKind::Pce, 64, HOSTS_PER_SITE, 1);
        assert_eq!(r.miss_drops, 0);
        assert_eq!(r.delivered, r.sent());
        // Per-flow cost stays bounded: a constant number of control
        // messages per flow, not per site.
        let per_flow = r.tally.control_msgs as f64 / r.flows.len() as f64;
        assert!(per_flow < 40.0, "per-flow cost exploded: {per_flow}");
    }

    #[test]
    fn nerd_push_bytes_blow_up_vs_e9() {
        let e9_top = run_scale(CpKind::Nerd, 32, e9_scale::HOSTS_PER_SITE, 1).tally;
        let xl = run_scale(CpKind::Nerd, 128, HOSTS_PER_SITE, 1).tally;
        assert!(
            xl.push_bytes > 10 * e9_top.push_bytes,
            "db × subscribers must dominate: e9@32 {} vs e11@128 {}",
            e9_top.push_bytes,
            xl.push_bytes
        );
    }

    #[test]
    fn pull_plane_still_waits_at_scale() {
        let r = run_scale(CpKind::LispQueue, 64, HOSTS_PER_SITE, 1);
        assert_eq!(r.miss_drops, 0);
        let wait = r.mean_queue_delay_ms();
        assert!(wait > 10.0, "mean wait {wait} ms");
    }
}
