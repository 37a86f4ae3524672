//! **E10 — failure recovery: locator failure under live traffic.**
//!
//! The paper's headline argument for a PCE-based control plane is that
//! a *push*-based plane reacts to reachability change on the control
//! plane's schedule, while *pull*-based planes react on the data
//! plane's: a cached mapping black-holes traffic until the ITR notices
//! the dead locator (RLOC probing), misses, and re-resolves. This
//! experiment measures that difference directly with the dynamics
//! subsystem (DESIGN.md §7).
//!
//! One long CBR flow runs from the client site to `host-0` of site D0.
//! At [`T_FAIL`] D0's primary locator fails permanently
//! ([`DynamicsSpec::rloc_failure`]): the provider link goes down, the
//! site IGP re-routes and notifies the domain PCE after the detection
//! delay, and the site re-registers its mapping onto the surviving
//! provider after the re-registration delay. Per control plane and
//! destination-site count we report
//!
//! * **black-holed packets** — sent minus delivered;
//! * **time-to-reconnect** — first arrival after the in-flight horizon
//!   past [`T_FAIL`], relative to the failure instant (`null` when the
//!   flow never recovers, e.g. the single-homed no-LISP baseline);
//! * **post-failure control cost** — control messages and pushed
//!   database bytes attributable to recovery (totals after the run
//!   minus a snapshot taken just before the failure).
//!
//! The shape: the PCE plane recovers in roughly the detection delay
//! plus one cross-domain push; NERD recovers at the re-registration
//! push but pays a full database × subscribers re-push that grows with
//! the site count; the pull planes wait out probe timeout *plus*
//! re-resolution, an order of magnitude longer — and the gap widens as
//! the mapping system gets bigger.

use crate::experiments::e8_overhead::control_plane_tally;
use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::{FlowMode, FlowSpec};
use crate::scenario::CpKind;
use crate::spec::{DynamicsSpec, ScenarioSpec};
use crate::table::Table;
use ircte::SelectionPolicy;
use lispwire::dnswire::Name;
use netsim::Ns;

/// When the locator fails (off the 1 s probe grid, so pull planes pay a
/// realistic partial probe interval).
pub const T_FAIL: Ns = Ns::from_ms(3300);

/// CBR packets per flow (50 ms apart: ~8 s of traffic).
pub const CBR_PACKETS: u32 = 160;

/// Destination-site counts of the sweep.
pub const SITE_COUNTS: [usize; 3] = [2, 8, 32];

/// One (control plane, site count) measurement.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Control plane label.
    pub cp: String,
    /// Destination-site count.
    pub n_sites: usize,
    /// CBR packets sent by the client.
    pub sent: u64,
    /// Packets delivered at the destination site.
    pub delivered: u64,
    /// Packets lost to the failure (sent − delivered).
    pub blackholed: u64,
    /// Time from the failure instant to the first post-failure arrival
    /// (ms); `None` when the flow never recovers.
    pub recovery_ms: Option<f64>,
    /// Control messages attributable to recovery (post-failure delta).
    pub recovery_ctl_msgs: u64,
    /// Database bytes pushed during recovery (NERD re-push).
    pub recovery_push_bytes: u64,
}

/// E10 result.
#[derive(Debug, Clone, Default)]
pub struct RecoveryResult {
    /// All rows, site-count-major.
    pub rows: Vec<RecoveryRow>,
}

impl RecoveryResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "recovery",
            "E10: locator-failure recovery under live CBR traffic",
            &[
                "cp",
                "n_sites",
                "sent",
                "delivered",
                "blackholed",
                "recovery_ms",
                "rec_ctl_msgs",
                "rec_push_bytes",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::usize(r.n_sites),
                Cell::u64(r.sent),
                Cell::u64(r.delivered),
                Cell::u64(r.blackholed),
                Cell::opt_f64(r.recovery_ms, 1, "never"),
                Cell::u64(r.recovery_ctl_msgs),
                Cell::u64(r.recovery_push_bytes),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }

    /// Rows for one control plane, ordered by site count.
    pub fn rows_for(&self, cp: &str) -> Vec<&RecoveryRow> {
        self.rows.iter().filter(|r| r.cp == cp).collect()
    }
}

/// Run one (cp, n_sites) cell.
pub fn run_recovery_cell(cp: CpKind, n_sites: usize, seed: u64) -> RecoveryRow {
    let mut spec = ScenarioSpec::multi_site(cp, n_sites, 2);
    let qname = spec.topology.host_name(&spec.topology.sites[1], 0);
    spec.set_flows(vec![FlowSpec {
        start: Ns::ZERO,
        qname: Name::parse_str(&qname).expect("valid generated name"),
        mode: FlowMode::Udp {
            packets: CBR_PACKETS,
            interval: Ns::from_ms(50),
            size: 300,
        },
    }]);
    spec.dynamics = Some(DynamicsSpec::rloc_failure("D0", "D0a", T_FAIL));
    // Utilisation-blind ingress selection, so the PCE's primary locator
    // is the same provider every other control plane registers (and
    // therefore the one the failure kills).
    spec.pce_policy = SelectionPolicy::MinCost;

    let mut world = spec.build(seed);
    world.schedule_all_flows();
    // Snapshot the control-plane tally just before the failure fires,
    // so the reported cost is the *recovery* cost alone.
    world.sim.run_until(T_FAIL - Ns(1));
    let before = control_plane_tally(&world);
    world.sim.run_until(Ns::from_secs(14));
    let after = control_plane_tally(&world);

    let sent: u64 = world.records().iter().map(|r| u64::from(r.data_sent)).sum();
    let delivered = world.server_udp_received();
    let arrivals = world.udp_arrivals("D0");
    // Packets accepted before the failure drain within ~2 WAN OWDs;
    // anything arriving after this horizon crossed the recovered path.
    let inflight_horizon = T_FAIL + Ns::from_ms(100);
    let recovery_ms = arrivals
        .iter()
        .find(|&&t| t > inflight_horizon)
        .map(|&t| (t - T_FAIL).as_ms_f64());

    RecoveryRow {
        cp: cp.label().into_owned(),
        n_sites,
        sent,
        delivered,
        blackholed: sent.saturating_sub(delivered),
        recovery_ms,
        recovery_ctl_msgs: after.control_msgs.saturating_sub(before.control_msgs),
        recovery_push_bytes: after.push_bytes.saturating_sub(before.push_bytes),
    }
}

/// Full sweep on up to `jobs` workers (`0` = auto): every [`CpKind`]
/// at every site count.
pub fn run_recovery_jobs(seed: u64, jobs: usize) -> RecoveryResult {
    let mut cells = Vec::new();
    for n in SITE_COUNTS {
        for cp in CpKind::all() {
            cells.push((cp, n));
        }
    }
    let rows = crate::experiments::sweep::Sweep::new("e10", cells).run(
        jobs,
        |&(cp, n)| format!("{}/n={n}", cp.label()),
        |&(cp, n)| run_recovery_cell(cp, n, seed),
    );
    RecoveryResult { rows }
}

/// Full sweep, serial.
pub fn run_recovery(seed: u64) -> RecoveryResult {
    run_recovery_jobs(seed, 1)
}

/// The registry entry for E10.
pub struct E10Recovery;

impl crate::experiments::Experiment for E10Recovery {
    fn name(&self) -> &'static str {
        "e10"
    }
    fn title(&self) -> &'static str {
        "Locator-failure recovery (dynamics subsystem)"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_recovery_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_recovers_fastest_and_pull_pays_probe_plus_resolution() {
        let pce = run_recovery_cell(CpKind::Pce, 2, 1);
        let pull = run_recovery_cell(CpKind::LispQueue, 2, 1);
        let pce_rec = pce.recovery_ms.expect("pce must recover");
        let pull_rec = pull.recovery_ms.expect("pull must recover");
        assert!(
            pce_rec * 3.0 < pull_rec,
            "push-based recovery must be far faster: pce {pce_rec} ms vs pull {pull_rec} ms"
        );
        assert!(pce.blackholed < pull.sent / 10, "{pce:?}");
    }

    #[test]
    fn nerd_repush_bytes_grow_with_sites() {
        let small = run_recovery_cell(CpKind::Nerd, 2, 1);
        let big = run_recovery_cell(CpKind::Nerd, 8, 1);
        assert!(small.recovery_push_bytes > 0, "{small:?}");
        assert!(
            big.recovery_push_bytes > 2 * small.recovery_push_bytes,
            "recovery re-push is db × subscribers: {} vs {}",
            small.recovery_push_bytes,
            big.recovery_push_bytes
        );
        assert!(small.recovery_ms.is_some());
    }

    #[test]
    fn no_lisp_single_homed_site_never_recovers() {
        let row = run_recovery_cell(CpKind::NoLisp, 2, 1);
        assert!(row.recovery_ms.is_none(), "{row:?}");
        assert!(row.blackholed > 0, "{row:?}");
    }

    #[test]
    fn every_cp_recovers_except_no_lisp() {
        for cp in CpKind::all() {
            let row = run_recovery_cell(cp, 2, 2);
            if cp == CpKind::NoLisp {
                continue;
            }
            assert!(
                row.recovery_ms.is_some(),
                "{}: must reconnect after the failure: {row:?}",
                row.cp
            );
            assert_eq!(
                row.sent,
                u64::from(CBR_PACKETS),
                "{}: full CBR must run: {row:?}",
                row.cp
            );
        }
    }
}
