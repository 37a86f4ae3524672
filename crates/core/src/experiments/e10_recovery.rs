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

use crate::experiments::{cross, Cell, Grid, RunRecord};
use crate::hosts::{FlowMode, FlowSpec};
use crate::scenario::CpKind;
use crate::spec::{DynamicsSpec, ScenarioSpec};
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

/// One (cp, n_sites) cell: one CBR flow to `host-0` of D0, whose
/// primary locator fails at [`T_FAIL`].
pub fn spec(cp: CpKind, n_sites: usize) -> ScenarioSpec {
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
    spec
}

/// E10: every [`CpKind`] at every site count.
pub fn grid() -> Grid<(CpKind, usize)> {
    Grid {
        name: "e10",
        title: "Locator-failure recovery (dynamics subsystem)",
        key: "recovery",
        heading: "E10: locator-failure recovery under live CBR traffic",
        columns: &[
            "cp",
            "n_sites",
            "sent",
            "delivered",
            "blackholed",
            "recovery_ms",
            "rec_ctl_msgs",
            "rec_push_bytes",
        ],
        cells: cross(&SITE_COUNTS, &CpKind::all()),
        row: |&(cp, n), seed| {
            let mut world = spec(cp, n).build(seed);
            world.schedule_all_flows();
            // Read the world just before the failure fires, so the
            // reported cost is the *recovery* cost alone.
            world.sim.run_until(T_FAIL - Ns(1));
            let before = RunRecord::of(&world).tally;
            world.sim.run_until(Ns::from_secs(14));
            let after = RunRecord::of(&world);
            // Packets accepted before the failure drain within ~2 WAN
            // OWDs; anything arriving after this horizon crossed the
            // recovered path. `never` when the flow never recovers.
            let inflight_horizon = T_FAIL + Ns::from_ms(100);
            let recovery_ms = world
                .udp_arrivals("D0")
                .into_iter()
                .find(|&t| t > inflight_horizon)
                .map(|t| (t - T_FAIL).as_ms_f64());
            let (sent, delivered) = (after.sent(), after.delivered);
            let t = after.tally;
            vec![
                Cell::str(cp.label()),
                Cell::usize(n),
                Cell::u64(sent),
                Cell::u64(delivered),
                Cell::u64(sent.saturating_sub(delivered)),
                Cell::opt_f64(recovery_ms, 1, "never"),
                Cell::u64(t.control_msgs.saturating_sub(before.control_msgs)),
                Cell::u64(t.push_bytes.saturating_sub(before.push_bytes)),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Section;

    fn cell(cp: CpKind, n: usize, seed: u64) -> Section {
        Grid {
            cells: vec![(cp, n)],
            ..grid()
        }
        .section(seed, 1)
    }

    #[test]
    fn pce_recovers_fastest_and_pull_pays_probe_plus_resolution() {
        let pce = cell(CpKind::Pce, 2, 1);
        let pull = cell(CpKind::LispQueue, 2, 1);
        let pce_rec = pce.num(0, "recovery_ms").expect("pce must recover");
        let pull_rec = pull.num(0, "recovery_ms").expect("pull must recover");
        assert!(
            pce_rec * 3.0 < pull_rec,
            "push-based recovery must be far faster: pce {pce_rec} ms vs pull {pull_rec} ms"
        );
        let pull_sent = pull.num(0, "sent").unwrap();
        assert!(
            pce.num(0, "blackholed").unwrap() < pull_sent / 10.0,
            "{pce:?}"
        );
    }

    #[test]
    fn nerd_repush_bytes_grow_with_sites() {
        let small = cell(CpKind::Nerd, 2, 1);
        let big = cell(CpKind::Nerd, 8, 1);
        let (s, b) = (
            small.num(0, "rec_push_bytes").unwrap(),
            big.num(0, "rec_push_bytes").unwrap(),
        );
        assert!(s > 0.0, "{small:?}");
        assert!(
            b > 2.0 * s,
            "recovery re-push is db × subscribers: {s} vs {b}"
        );
        assert!(small.num(0, "recovery_ms").is_some());
    }

    #[test]
    fn no_lisp_single_homed_site_never_recovers() {
        let s = cell(CpKind::NoLisp, 2, 1);
        assert!(s.num(0, "recovery_ms").is_none(), "{s:?}");
        assert!(s.num(0, "blackholed").unwrap() > 0.0, "{s:?}");
    }

    #[test]
    fn every_cp_recovers_except_no_lisp() {
        let mut g = grid();
        g.cells.retain(|&(cp, n)| n == 2 && cp != CpKind::NoLisp);
        let s = g.section(2, 1);
        for (i, row) in s.rows.iter().enumerate() {
            let cp = &row[0].text;
            assert!(
                s.num(i, "recovery_ms").is_some(),
                "{cp}: must reconnect after the failure: {row:?}"
            );
            assert_eq!(
                s.num(i, "sent"),
                Some(f64::from(CBR_PACKETS)),
                "{cp}: full CBR must run: {row:?}"
            );
        }
    }
}
