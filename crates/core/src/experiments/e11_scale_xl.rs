//! **E11 — extra-large mapping-system scale: up to 512 sites.**
//!
//! E9 stops at 32 destination sites; related work argues the regimes
//! that actually separate control-plane designs start far beyond that
//! (Coras et al. on mapping-cache scalability, LazyCtrl on control
//! planes at data-center scale). This experiment pushes the same
//! measurement to N ∈ {64, 128, 512} sites under the PoissonZipf
//! workload — a sweep that is only practical because the cells fan out
//! across the [`crate::experiments::sweep::Sweep`] worker pool
//! (DESIGN.md §8): the N=512 worlds dominate the wall-clock and run
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
//! Rows reuse the E9 cell runner ([`run_scale_cell_at`]) so the two
//! experiments stay directly comparable; E11 adds the derived
//! `ctl_per_flow` column that makes the scaling argument explicit.

use crate::experiments::e9_scale::{run_scale_cell_at, ScaleRow};
use crate::experiments::report::{Cell, ExpReport, Section};
use crate::experiments::sweep::Sweep;
use crate::scenario::CpKind;
use crate::table::Table;

/// Destination-site counts: doubling then 4× steps, 2×–16× past E9's
/// top of 32.
pub const SITE_COUNTS: [usize; 3] = [64, 128, 512];

/// Destination EIDs per site (kept small: the axis under test is the
/// *site* count, and 512 sites × 2 hosts already yields 1024 EIDs).
pub const HOSTS_PER_SITE: usize = 2;

/// The control planes bounding the design space at scale.
pub fn e11_variants() -> Vec<CpKind> {
    vec![CpKind::LispQueue, CpKind::Nerd, CpKind::Pce]
}

/// E11 result.
#[derive(Debug, Clone, Default)]
pub struct ScaleXlResult {
    /// All rows, site-count-major.
    pub rows: Vec<ScaleRow>,
}

impl ScaleXlResult {
    /// The typed result section (E9 columns plus `ctl_per_flow`).
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "scale_xl",
            "E11: extra-large scale — N ∈ {64, 128, 512} destination sites, PoissonZipf workload",
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
                "ctl_per_flow",
                "itr_state",
                "push_bytes",
            ],
        );
        for r in &self.rows {
            let per_flow = r.control_msgs as f64 / (r.flows.max(1)) as f64;
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
                Cell::f64(per_flow, 1),
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

/// Run one (cp, n_sites) cell — the E9 cell runner at XL site counts
/// with the XL host population.
pub fn run_scale_xl_cell(cp: CpKind, n_sites: usize, seed: u64) -> ScaleRow {
    run_scale_cell_at(cp, n_sites, HOSTS_PER_SITE, seed)
}

/// Full sweep on up to `jobs` workers (`0` = auto).
pub fn run_scale_xl_jobs(seed: u64, jobs: usize) -> ScaleXlResult {
    let mut cells = Vec::new();
    for n in SITE_COUNTS {
        for cp in e11_variants() {
            cells.push((cp, n));
        }
    }
    let rows = Sweep::new("e11", cells).run(
        jobs,
        |&(cp, n)| format!("{}/n={n}", cp.label()),
        |&(cp, n)| run_scale_xl_cell(cp, n, seed),
    );
    ScaleXlResult { rows }
}

/// Full sweep, serial.
pub fn run_scale_xl(seed: u64) -> ScaleXlResult {
    run_scale_xl_jobs(seed, 1)
}

/// The registry entry for E11.
pub struct E11ScaleXl;

impl crate::experiments::Experiment for E11ScaleXl {
    fn name(&self) -> &'static str {
        "e11"
    }
    fn title(&self) -> &'static str {
        "Extra-large scale sweep (up to 512 sites)"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_scale_xl_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_cost_is_per_flow_at_64_sites() {
        let row = run_scale_xl_cell(CpKind::Pce, 64, 1);
        assert_eq!(row.miss_drops, 0, "{row:?}");
        assert_eq!(row.delivered, row.sent, "{row:?}");
        // Per-flow cost stays bounded: a constant number of control
        // messages per flow, not per site.
        let per_flow = row.control_msgs as f64 / row.flows as f64;
        assert!(per_flow < 40.0, "per-flow cost exploded: {per_flow}");
    }

    #[test]
    fn nerd_push_bytes_blow_up_vs_e9() {
        let e9_top = run_scale_cell_at(CpKind::Nerd, 32, 4, 1);
        let xl = run_scale_xl_cell(CpKind::Nerd, 128, 1);
        assert!(
            xl.push_bytes > 10 * e9_top.push_bytes,
            "db × subscribers must dominate: e9@32 {} vs e11@128 {}",
            e9_top.push_bytes,
            xl.push_bytes
        );
    }

    #[test]
    fn pull_plane_still_waits_at_scale() {
        let row = run_scale_xl_cell(CpKind::LispQueue, 64, 1);
        assert_eq!(row.miss_drops, 0, "{row:?}");
        assert!(row.mean_map_latency_ms > 10.0, "{row:?}");
    }
}
