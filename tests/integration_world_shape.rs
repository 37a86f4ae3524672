//! Integration: the shape of every mapping plane's world is pinned —
//! node names in id order, node and link counts, and the events a
//! fixed-horizon run processes — for all 8 planes × warm-standby
//! replicas off/on × defenses off/armed on `multi_site(cp, 4, 2)`.
//!
//! The goldens reach the replica and armed worlds only through report
//! rows; this pin fails on any change to their build order (node ids,
//! link indices, event sequence numbers) or to their dynamics hooks
//! (every world carries a mapping-node crash and restart, a remap and
//! a locator failure).
//!
//! Each run-length world also checks that `Sim::counters()`, the
//! named view the pins digest, reads what the experiments' own readers
//! read from the nodes' typed fields.
//!
//! A second, build-only family pins `multi_site(cp, 300, 2)` with
//! replicas, armed defenses, the same dynamics and every E12 attacker
//! role: the attacker layer and the address plan's first-octet step at
//! 256 sites, which no run-length world here reaches.

use lispdp::Xtr;
use netsim::Ns;
use pcelisp::experiments::e12_adversarial::attack_roles;
use pcelisp::scenario::CpKind;
use pcelisp::spec::{DefenseSpec, DynEventKind, DynamicsSpec, ReplicaSpec, ScenarioSpec, World};

/// FNV-1a over the given strings, each terminated by a newline.
fn fnv64<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn dynamics() -> DynamicsSpec {
    let remap = DynEventKind::Remap {
        site: "D0".into(),
        provider: "D0b".into(),
    };
    let fail = DynEventKind::RlocFail {
        site: "D1".into(),
        provider: "D1a".into(),
    };
    DynamicsSpec::mapsys_outage("S", Ns::from_ms(1000), Ns::from_ms(3000))
        .with_event(Ns::from_ms(1500), remap)
        .with_event(Ns::from_ms(2000), fail)
}

fn world(cp: CpKind, replicas: bool, armed: bool) -> World {
    let mut spec = ScenarioSpec::multi_site(cp, 4, 2);
    if replicas {
        spec.replicas = Some(ReplicaSpec::default());
    }
    if armed {
        spec.defense = DefenseSpec::armed();
    }
    spec.dynamics = Some(dynamics());
    let mut w = spec.build(1);
    w.schedule_all_flows();
    w.sim.run_until(Ns::from_secs(20));
    w
}

/// One pinned row: plane, replicas, armed, node count, link count,
/// events processed, a digest of the node names in id order, and a
/// digest of the traffic — packets per link direction in link-index
/// order, then the sorted counters.
fn shape(w: &World, cp: CpKind, replicas: bool, armed: bool) -> String {
    let names = fnv64((0..w.sim.node_count()).map(|i| w.sim.node_name(i)));
    let links =
        (0..w.sim.link_count() * 2).map(|t| w.sim.link_stats(t / 2, t % 2).tx_packets.to_string());
    let counters = w
        .sim
        .counters()
        .sorted()
        .into_iter()
        .map(|(n, v)| format!("{n}={v}"));
    let traffic: Vec<String> = links.chain(counters).collect();
    format!(
        "{} {replicas} {armed} {} {} {} {names:016x} {:016x}",
        cp.label(),
        w.sim.node_count(),
        w.sim.link_count(),
        w.sim.events_processed(),
        fnv64(traffic.iter().map(String::as_str)),
    )
}

/// The named view agrees with the readers the experiments use.
fn assert_view_agrees(w: &World, row: &str) {
    let view = w.sim.counters();
    assert_eq!(view.get("xtr.miss_drops"), w.total_miss_drops(), "{row}");
    assert_eq!(
        view.get("server.udp_received"),
        w.server_udp_received(),
        "{row}"
    );
    let queued: u64 = w
        .all_xtrs()
        .into_iter()
        .map(|x| w.sim.node_ref::<Xtr>(x).stats.queued)
        .sum();
    assert_eq!(view.get("xtr.queued"), queued, "{row}");
}

/// Recorded before the mapping planes moved out of `ScenarioSpec::build`;
/// the four `lisp-data-cp` traffic digests were re-recorded when the
/// named `xtr.queued` began to count DataOverCp queueing, which put
/// each on its `lisp-queue` twin's.
const PINNED: &[&str] = &[
    "no-lisp false false 18 17 350 95116c8970b8cb8d 0646b073a883fa05",
    "no-lisp false true 18 17 350 95116c8970b8cb8d 0646b073a883fa05",
    "no-lisp true false 18 17 350 95116c8970b8cb8d 0646b073a883fa05",
    "no-lisp true true 18 17 350 95116c8970b8cb8d 0646b073a883fa05",
    "lisp-drop false false 29 33 442 e310586c455fdd43 fc64b10e645c843d",
    "lisp-drop false true 29 33 442 e310586c455fdd43 fc64b10e645c843d",
    "lisp-drop true false 30 34 444 4fa51b9257375c47 bc38619b6f295f0d",
    "lisp-drop true true 30 34 444 4fa51b9257375c47 bc38619b6f295f0d",
    "lisp-queue false false 29 33 502 e310586c455fdd43 717e2f5c1db6bf65",
    "lisp-queue false true 29 33 502 e310586c455fdd43 717e2f5c1db6bf65",
    "lisp-queue true false 30 34 504 4fa51b9257375c47 4a10dc58fe6f7415",
    "lisp-queue true true 30 34 504 4fa51b9257375c47 4a10dc58fe6f7415",
    "lisp-data-cp false false 29 33 514 e310586c455fdd43 717e2f5c1db6bf65",
    "lisp-data-cp false true 29 33 514 e310586c455fdd43 717e2f5c1db6bf65",
    "lisp-data-cp true false 30 34 516 4fa51b9257375c47 4a10dc58fe6f7415",
    "lisp-data-cp true true 30 34 516 4fa51b9257375c47 4a10dc58fe6f7415",
    "lisp-alt-4 false false 32 36 490 97efd4ab9bb354d0 bbfe2f6f62db30b5",
    "lisp-alt-4 false true 32 36 490 97efd4ab9bb354d0 bbfe2f6f62db30b5",
    "lisp-alt-4 true false 33 37 490 c286cd862515631f b69309b2d4df78c5",
    "lisp-alt-4 true true 33 37 490 c286cd862515631f b69309b2d4df78c5",
    "lisp-cons-1 false false 35 39 522 b9fcbf753a9ee44a 907d80b6a13f3702",
    "lisp-cons-1 false true 35 39 522 b9fcbf753a9ee44a 907d80b6a13f3702",
    "lisp-cons-1 true false 40 44 524 c8a892963617a969 68b74c0004cab6f2",
    "lisp-cons-1 true true 40 44 524 c8a892963617a969 68b74c0004cab6f2",
    "nerd false false 29 33 507 b244b0bf020dcc8f 667fa895d44d5198",
    "nerd false true 29 33 507 b244b0bf020dcc8f 667fa895d44d5198",
    "nerd true false 30 34 599 cbe0d01372e34f4b fa9379ee70124111",
    "nerd true true 30 34 599 cbe0d01372e34f4b fa9379ee70124111",
    "pce false false 33 37 380 3b396201aedb0d0c ab87d4b44ccf0c3c",
    "pce false true 33 37 380 3b396201aedb0d0c ab87d4b44ccf0c3c",
    "pce true false 34 39 637 c88913ccda10a224 300a5d79a982513c",
    "pce true true 34 39 637 c88913ccda10a224 300a5d79a982513c",
];

/// One build-only row of a 300-site world carrying every attacker role:
/// plane, node count, link count and the node-name digest.
fn big_shape(cp: CpKind) -> String {
    let mut spec = ScenarioSpec::multi_site(cp, 300, 2);
    spec.replicas = Some(ReplicaSpec::default());
    spec.defense = DefenseSpec::armed();
    spec.dynamics = Some(dynamics());
    spec.attackers = attack_roles().into_iter().map(|(_, role)| role).collect();
    let w = spec.build(1);
    let names = fnv64((0..w.sim.node_count()).map(|i| w.sim.node_name(i)));
    format!(
        "{} {} {} {names:016x}",
        cp.label(),
        w.sim.node_count(),
        w.sim.link_count()
    )
}

/// Recorded before `ScenarioSpec::build` was split into layers. The
/// CONS rows will move when the CAR address plan stops wrapping at 256
/// sites (ROADMAP 2(b)): CAR node names carry the CAR address.
const PINNED_300: &[&str] = &[
    "no-lisp 908 907 42383f4f34138878",
    "lisp-drop 1512 1812 6aa2543f15aaa5c0",
    "lisp-queue 1512 1812 6aa2543f15aaa5c0",
    "lisp-data-cp 1512 1812 6aa2543f15aaa5c0",
    "lisp-alt-4 1515 1815 f199ba2545fd60d0",
    "lisp-cons-1 2114 2414 355ef0d8eaa3a4ec",
    "nerd 1512 1812 98266d3f49288f5c",
    "pce 1812 2113 a183122d33233bc3",
];

#[test]
fn every_plane_world_keeps_its_shape() {
    let mut rows = PINNED.iter();
    for cp in CpKind::all() {
        for replicas in [false, true] {
            for armed in [false, true] {
                let want = rows.next().expect("one pinned row per world");
                let w = world(cp, replicas, armed);
                assert_view_agrees(&w, want);
                assert_eq!(shape(&w, cp, replicas, armed), *want);
            }
        }
    }
    assert!(rows.next().is_none(), "one world per pinned row");
    let big: Vec<String> = CpKind::all().into_iter().map(big_shape).collect();
    assert_eq!(big, PINNED_300);
}
