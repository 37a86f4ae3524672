//! **E13 — mapping-infrastructure availability: node crash and
//! deterministic failover.**
//!
//! E10 killed a *locator* — the data path — and measured how fast each
//! control plane re-routed around it. This experiment kills the
//! *mapping infrastructure itself*: at [`T_FAIL`] the mapping node
//! serving the client site crashes
//! ([`DynEventKind::NodeDown`](crate::spec::DynEventKind::NodeDown) →
//! `Node::on_crash`, volatile state lost, deliveries dropped) and
//! restarts at [`T_RESTORE`]. The data path stays healthy throughout —
//! what breaks is the ability to *resolve new destinations*.
//!
//! Two CBR flows probe that window: flow A starts before the crash
//! (its mapping is already resolved and cached, so it should sail
//! through), flow B starts mid-outage and measures the blackhole. Per
//! control plane, destination-site count and replication arm
//! (`replicas` column: 0 = single instance, 1 = warm standby per
//! mapping role, [`crate::spec::ReplicaSpec`]) we report
//!
//! * **blackhole time** — flow B's first packet delivered, relative to
//!   the flow's start (`never` when it stays unresolved forever);
//! * **flow-A loss** — packets the pre-crash flow lost (cached
//!   mappings must make this 0: the outage is control-plane only);
//! * **recovery control cost** — control messages after the crash
//!   instant (retransmits, failover requests, standby re-pushes);
//! * **unresolved flows** — destinations that never delivered a single
//!   packet by the horizon.
//!
//! The shape: push planes (NERD, and no-LISP trivially) barely notice —
//! resolution state was already distributed. Pull planes blackhole
//! until either the xTR's ordered replica list fails over
//! (~`max_tries × retransmit`) or, without replicas, until the node
//! restarts and the request-cooldown re-arm retries. The PCE plane is
//! the extreme case in both directions: the bump-in-the-wire sits on
//! the DNS path itself, so without a standby the mid-outage flow is
//! unresolved *forever* (the host never re-asks), while with the warm
//! standby (mirrored flow database, resolver uplink failover, IGP
//! re-route) it recovers fastest of all the LISP planes.

use crate::experiments::e8_overhead::control_plane_tally;
use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::{FlowMode, FlowSpec, ServerHost};
use crate::scenario::CpKind;
use crate::spec::{DynamicsSpec, ReplicaSpec, RetrySpec, ScenarioSpec};
use ircte::SelectionPolicy;
use lispwire::dnswire::Name;
use netsim::Ns;
use simstats::Table;

/// When the client site's mapping node crashes.
pub const T_FAIL: Ns = Ns::from_secs(2);

/// When it restarts.
pub const T_RESTORE: Ns = Ns::from_secs(6);

/// Start of flow A (pre-crash; resolves while everything is up).
pub const FLOW_A_START: Ns = Ns::from_ms(500);

/// Start of flow B (mid-outage; measures the blackhole).
pub const FLOW_B_START: Ns = Ns::from_ms(2500);

/// CBR packets per flow (100 ms apart: ~8 s of traffic, spanning the
/// outage and the restart).
pub const CBR_PACKETS: u32 = 80;

/// Destination-site counts of the sweep.
pub const SITE_COUNTS: [usize; 3] = [2, 8, 32];

/// One (control plane, site count, replication arm) measurement.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// Control plane label.
    pub cp: String,
    /// Destination-site count.
    pub n_sites: usize,
    /// Standby replicas per mapping role (0 or 1).
    pub replicas: u32,
    /// Flow B: first packet delivered relative to the flow's start
    /// (ms); `None` when it stays unresolved forever.
    pub blackhole_ms: Option<f64>,
    /// Flow A packets lost (cached mapping: expected 0).
    pub flow_a_lost: u64,
    /// Control messages after the crash instant.
    pub recovery_ctl_msgs: u64,
    /// Destinations that never delivered a packet by the horizon.
    pub unresolved: u64,
}

/// E13 result.
#[derive(Debug, Clone, Default)]
pub struct AvailabilityResult {
    /// All rows, replication-arm-major, then site-count, then plane.
    pub rows: Vec<AvailabilityRow>,
}

impl AvailabilityResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "availability",
            "E13: mapping-node crash, replicated resolvers and failover",
            &[
                "cp",
                "n_sites",
                "replicas",
                "blackhole_ms",
                "flow_a_lost",
                "rec_ctl_msgs",
                "unresolved",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::usize(r.n_sites),
                Cell::u64(u64::from(r.replicas)),
                Cell::opt_f64(r.blackhole_ms, 1, "never"),
                Cell::u64(r.flow_a_lost),
                Cell::u64(r.recovery_ctl_msgs),
                Cell::u64(r.unresolved),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }

    /// The row for one (cp label, site count, replicas) cell.
    pub fn row_for(&self, cp: &str, n_sites: usize, replicas: u32) -> Option<&AvailabilityRow> {
        self.rows
            .iter()
            .find(|r| r.cp == cp && r.n_sites == n_sites && r.replicas == replicas)
    }
}

/// The retry schedule every cell runs: fast enough that failover
/// completes within the outage, with the cooldown re-arm so planes
/// without replicas still recover once the node restarts.
pub fn retry_spec() -> RetrySpec {
    RetrySpec {
        retransmit: Some(Ns::from_ms(500)),
        max_tries: Some(2),
        backoff_multiplier: 2,
        backoff_cap: Ns::from_secs(2),
        cooldown: Some(Ns::from_secs(1)),
    }
}

/// Run one (cp, n_sites, replicas) cell.
pub fn run_availability_cell(
    cp: CpKind,
    n_sites: usize,
    replicas: u32,
    seed: u64,
) -> AvailabilityRow {
    let mut spec = ScenarioSpec::multi_site(cp, n_sites, 2);
    // Flow B targets a *different* site than flow A: with site-prefix
    // mapping granularity a same-site destination would be covered by
    // flow A's cached mapping and never exercise the dead resolver.
    let qname_a = spec.topology.host_name(&spec.topology.sites[1], 0);
    let qname_b = spec.topology.host_name(&spec.topology.sites[2], 0);
    let cbr = FlowMode::Udp {
        packets: CBR_PACKETS,
        interval: Ns::from_ms(100),
        size: 200,
    };
    spec.set_flows(vec![
        FlowSpec {
            start: FLOW_A_START,
            qname: Name::parse_str(&qname_a).expect("valid generated name"),
            mode: cbr,
        },
        FlowSpec {
            start: FLOW_B_START,
            qname: Name::parse_str(&qname_b).expect("valid generated name"),
            mode: cbr,
        },
    ]);
    // Crash the mapping node serving the *client* site: the shared
    // resolver/authority/gateway, or S's own CAR / PCE bump.
    spec.dynamics = Some(DynamicsSpec::mapsys_outage("S", T_FAIL, T_RESTORE));
    spec.retry = Some(retry_spec());
    if replicas > 0 {
        spec.replicas = Some(ReplicaSpec {
            count: replicas,
            ..ReplicaSpec::default()
        });
    }
    spec.pce_policy = SelectionPolicy::MinCost;

    let mut world = spec.build(seed);
    world.schedule_all_flows();
    // Snapshot the control-plane tally just before the crash, so the
    // reported cost is the outage's alone.
    world.sim.run_until(T_FAIL - Ns(1));
    let before = control_plane_tally(&world);
    world.sim.run_until(Ns::from_secs(14));
    let after = control_plane_tally(&world);

    let eid_a = world.site("D0").dest_eids[0];
    let eid_b = world.site("D1").dest_eids[0];
    let server_a = world.sim.node_ref::<ServerHost>(world.site("D0").host);
    let server_b = world.sim.node_ref::<ServerHost>(world.site("D1").host);
    let blackhole_ms = server_b
        .first_udp_at_dst
        .get(&eid_b)
        .map(|&t| (t - FLOW_B_START).as_ms_f64());
    let a_delivered = server_a
        .udp_received_by_dst
        .get(&eid_a)
        .copied()
        .unwrap_or(0);
    let unresolved = [(server_a, eid_a), (server_b, eid_b)]
        .iter()
        .filter(|(srv, eid)| !srv.first_udp_at_dst.contains_key(eid))
        .count() as u64;

    AvailabilityRow {
        cp: cp.label().into_owned(),
        n_sites,
        replicas,
        blackhole_ms,
        flow_a_lost: u64::from(CBR_PACKETS).saturating_sub(a_delivered),
        recovery_ctl_msgs: after.control_msgs.saturating_sub(before.control_msgs),
        unresolved,
    }
}

/// Full sweep on up to `jobs` workers (`0` = auto): every [`CpKind`]
/// at every site count, without and with the standby replicas.
pub fn run_availability_jobs(seed: u64, jobs: usize) -> AvailabilityResult {
    let mut cells = Vec::new();
    for replicas in [0u32, 1] {
        for n in SITE_COUNTS {
            for cp in CpKind::all() {
                cells.push((cp, n, replicas));
            }
        }
    }
    let rows = crate::experiments::sweep::Sweep::new("e13", cells).run(
        jobs,
        |&(cp, n, r)| format!("{}/n={n}/r={r}", cp.label()),
        |&(cp, n, r)| run_availability_cell(cp, n, r, seed),
    );
    AvailabilityResult { rows }
}

/// Full sweep, serial.
pub fn run_availability(seed: u64) -> AvailabilityResult {
    run_availability_jobs(seed, 1)
}

/// The registry entry for E13.
pub struct E13Availability;

impl crate::experiments::Experiment for E13Availability {
    fn name(&self) -> &'static str {
        "e13"
    }
    fn title(&self) -> &'static str {
        "Mapping-infrastructure availability (crash + failover)"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_availability_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_flow_survives_the_outage_everywhere() {
        for cp in CpKind::all() {
            let bare = run_availability_cell(cp, 2, 0, 1);
            let rep = run_availability_cell(cp, 2, 1, 1);
            // Setup drops (pull-drop planes lose a couple of packets
            // while the *first* resolution runs) are plane-inherent;
            // the outage itself must not add any on top — the cached
            // mapping carries flow A straight through the crash.
            assert_eq!(
                bare.flow_a_lost, rep.flow_a_lost,
                "{}: flow-A loss must not depend on replication: {bare:?} vs {rep:?}",
                bare.cp
            );
            assert!(
                bare.flow_a_lost < 10,
                "{}: the outage is control-plane only; the pre-crash flow's \
                 cached mapping must keep it alive: {bare:?}",
                bare.cp
            );
        }
    }

    #[test]
    fn pce_without_standby_blackholes_forever_with_standby_recovers_fastest() {
        let bare = run_availability_cell(CpKind::Pce, 2, 0, 1);
        assert!(
            bare.blackhole_ms.is_none() && bare.unresolved == 1,
            "the dead bump swallows the one DNS query the host ever sends: {bare:?}"
        );
        let standby = run_availability_cell(CpKind::Pce, 2, 1, 1);
        let pce_bh = standby.blackhole_ms.expect("standby PCE must recover");
        assert_eq!(standby.unresolved, 0, "{standby:?}");
        let pull = run_availability_cell(CpKind::LispDrop, 2, 1, 1);
        let pull_bh = pull.blackhole_ms.expect("replicated pull must recover");
        assert!(
            pce_bh < pull_bh,
            "warm standby + mirrored flow db must beat request-exhaustion \
             failover: pce {pce_bh} ms vs pull {pull_bh} ms"
        );
    }

    #[test]
    fn replicas_cut_pull_blackhole_and_restart_rearm_saves_the_bare_world() {
        let bare = run_availability_cell(CpKind::LispDrop, 2, 0, 1);
        let bare_bh = bare
            .blackhole_ms
            .expect("cooldown re-arm must recover the flow after the restart");
        // Without a replica the flow waits out the whole outage.
        assert!(
            bare_bh >= (T_RESTORE - FLOW_B_START).as_ms_f64(),
            "{bare:?}"
        );
        let rep = run_availability_cell(CpKind::LispDrop, 2, 1, 1);
        let rep_bh = rep.blackhole_ms.expect("failover must recover the flow");
        assert!(
            rep_bh * 2.0 < bare_bh,
            "the ordered replica list must fail over well before the \
             restart: {rep_bh} ms vs {bare_bh} ms"
        );
    }

    #[test]
    fn push_planes_barely_notice() {
        for cp in [CpKind::NoLisp, CpKind::Nerd] {
            let row = run_availability_cell(cp, 2, 0, 1);
            let bh = row.blackhole_ms.unwrap_or(f64::INFINITY);
            assert!(
                bh < 1000.0,
                "{}: resolution state is already distributed; the crash \
                 must not blackhole the new flow: {row:?}",
                row.cp
            );
        }
    }
}
