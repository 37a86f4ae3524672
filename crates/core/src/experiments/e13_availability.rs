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

use crate::experiments::{cross, Cell, Grid, RunRecord};
use crate::hosts::{FlowMode, FlowSpec, ServerHost};
use crate::scenario::CpKind;
use crate::spec::{DynamicsSpec, ReplicaSpec, RetrySpec, ScenarioSpec};
use ircte::SelectionPolicy;
use lispwire::dnswire::Name;
use netsim::Ns;

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

/// One (cp, n_sites, replicas) cell: flow A to D0 before the crash,
/// flow B to D1 during it.
pub fn spec(cp: CpKind, n_sites: usize, replicas: u32) -> ScenarioSpec {
    let mut spec = ScenarioSpec::multi_site(cp, n_sites, 2);
    // Flow B targets a *different* site than flow A: with site-prefix
    // mapping granularity a same-site destination would be covered by
    // flow A's cached mapping and never exercise the dead resolver.
    let cbr = FlowMode::Udp {
        packets: CBR_PACKETS,
        interval: Ns::from_ms(100),
        size: 200,
    };
    let flow = |start, site| FlowSpec {
        start,
        qname: Name::parse_str(&spec.topology.host_name(&spec.topology.sites[site], 0))
            .expect("valid generated name"),
        mode: cbr,
    };
    let flows = vec![flow(FLOW_A_START, 1), flow(FLOW_B_START, 2)];
    spec.set_flows(flows);
    // Crash the mapping node serving the *client* site: the shared
    // resolver/authority/gateway, or S's own CAR / PCE bump.
    spec.dynamics = Some(DynamicsSpec::mapsys_outage("S", T_FAIL, T_RESTORE));
    spec.retry = Some(retry_spec());
    spec.replicas = (replicas > 0).then(|| ReplicaSpec {
        count: replicas,
        ..ReplicaSpec::default()
    });
    spec.pce_policy = SelectionPolicy::MinCost;
    spec
}

/// E13: every [`CpKind`] at every site count, without and with the
/// standby replicas (replication-arm-major).
pub fn grid() -> Grid<(CpKind, usize, u32)> {
    Grid {
        name: "e13",
        title: "Mapping-infrastructure availability (crash + failover)",
        key: "availability",
        heading: "E13: mapping-node crash, replicated resolvers and failover",
        columns: &[
            "cp",
            "n_sites",
            "replicas",
            "blackhole_ms",
            "flow_a_lost",
            "rec_ctl_msgs",
            "unresolved",
        ],
        cells: [0u32, 1]
            .into_iter()
            .flat_map(|r| {
                cross(&SITE_COUNTS, &CpKind::all())
                    .into_iter()
                    .map(move |(cp, n)| (cp, n, r))
            })
            .collect(),
        row: |&(cp, n, replicas), seed| {
            let mut world = spec(cp, n, replicas).build(seed);
            world.schedule_all_flows();
            // Read the world just before the crash, so the reported
            // cost is the outage's alone.
            world.sim.run_until(T_FAIL - Ns(1));
            let before = RunRecord::of(&world).tally;
            world.sim.run_until(Ns::from_secs(14));
            let after = RunRecord::of(&world).tally;

            let (d0, d1) = (world.site("D0"), world.site("D1"));
            let (eid_a, eid_b) = (d0.dest_eids[0], d1.dest_eids[0]);
            let server_a = world.sim.node_ref::<ServerHost>(d0.host);
            let server_b = world.sim.node_ref::<ServerHost>(d1.host);
            // Flow B's first delivery relative to its start; `never`
            // when it stays unresolved forever.
            let blackhole_ms =
                (server_b.first_udp_at_dst.get(&eid_b)).map(|&t| (t - FLOW_B_START).as_ms_f64());
            let a_delivered = server_a.udp_received_by_dst.get(&eid_a).copied();
            // Destinations that never delivered a packet by the horizon.
            let unresolved = [(server_a, eid_a), (server_b, eid_b)]
                .iter()
                .filter(|(srv, eid)| !srv.first_udp_at_dst.contains_key(eid))
                .count();
            vec![
                Cell::str(cp.label()),
                Cell::usize(n),
                Cell::u64(u64::from(replicas)),
                Cell::opt_f64(blackhole_ms, 1, "never"),
                Cell::u64(u64::from(CBR_PACKETS).saturating_sub(a_delivered.unwrap_or(0))),
                Cell::u64(after.control_msgs.saturating_sub(before.control_msgs)),
                Cell::usize(unresolved),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Section;

    fn cell(cp: CpKind, replicas: u32) -> Section {
        Grid {
            cells: vec![(cp, 2, replicas)],
            ..grid()
        }
        .section(1, 1)
    }

    fn n(s: &Section, column: &str) -> Option<f64> {
        s.num(0, column)
    }

    #[test]
    fn cached_flow_survives_the_outage_everywhere() {
        for cp in CpKind::all() {
            let bare = cell(cp, 0);
            let rep = cell(cp, 1);
            // Setup drops (pull-drop planes lose a couple of packets
            // while the *first* resolution runs) are plane-inherent;
            // the outage itself must not add any on top — the cached
            // mapping carries flow A straight through the crash.
            assert_eq!(
                n(&bare, "flow_a_lost"),
                n(&rep, "flow_a_lost"),
                "{}: flow-A loss must not depend on replication: {bare:?} vs {rep:?}",
                cp.label()
            );
            assert!(
                n(&bare, "flow_a_lost").unwrap() < 10.0,
                "{}: the outage is control-plane only; the pre-crash flow's \
                 cached mapping must keep it alive: {bare:?}",
                cp.label()
            );
        }
    }

    #[test]
    fn pce_without_standby_blackholes_forever_with_standby_recovers_fastest() {
        let bare = cell(CpKind::Pce, 0);
        assert!(
            n(&bare, "blackhole_ms").is_none() && n(&bare, "unresolved") == Some(1.0),
            "the dead bump swallows the one DNS query the host ever sends: {bare:?}"
        );
        let standby = cell(CpKind::Pce, 1);
        let pce_bh = n(&standby, "blackhole_ms").expect("standby PCE must recover");
        assert_eq!(n(&standby, "unresolved"), Some(0.0), "{standby:?}");
        let pull = cell(CpKind::LispDrop, 1);
        let pull_bh = n(&pull, "blackhole_ms").expect("replicated pull must recover");
        assert!(
            pce_bh < pull_bh,
            "warm standby + mirrored flow db must beat request-exhaustion \
             failover: pce {pce_bh} ms vs pull {pull_bh} ms"
        );
    }

    #[test]
    fn replicas_cut_pull_blackhole_and_restart_rearm_saves_the_bare_world() {
        let bare = cell(CpKind::LispDrop, 0);
        let bare_bh = n(&bare, "blackhole_ms")
            .expect("cooldown re-arm must recover the flow after the restart");
        // Without a replica the flow waits out the whole outage.
        assert!(
            bare_bh >= (T_RESTORE - FLOW_B_START).as_ms_f64(),
            "{bare:?}"
        );
        let rep = cell(CpKind::LispDrop, 1);
        let rep_bh = n(&rep, "blackhole_ms").expect("failover must recover the flow");
        assert!(
            rep_bh * 2.0 < bare_bh,
            "the ordered replica list must fail over well before the \
             restart: {rep_bh} ms vs {bare_bh} ms"
        );
    }

    #[test]
    fn push_planes_barely_notice() {
        for cp in [CpKind::NoLisp, CpKind::Nerd] {
            let s = cell(cp, 0);
            let bh = n(&s, "blackhole_ms").unwrap_or(f64::INFINITY);
            assert!(
                bh < 1000.0,
                "{}: resolution state is already distributed; the crash \
                 must not blackhole the new flow: {s:?}",
                cp.label()
            );
        }
    }
}
