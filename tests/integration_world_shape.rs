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

use netsim::Ns;
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
fn shape(cp: CpKind, replicas: bool, armed: bool) -> String {
    let w = world(cp, replicas, armed);
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

/// Recorded before the mapping planes moved out of `ScenarioSpec::build`.
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
    "lisp-data-cp false false 29 33 514 e310586c455fdd43 7233faa848c2f0a2",
    "lisp-data-cp false true 29 33 514 e310586c455fdd43 7233faa848c2f0a2",
    "lisp-data-cp true false 30 34 516 4fa51b9257375c47 8658fc80b0394972",
    "lisp-data-cp true true 30 34 516 4fa51b9257375c47 8658fc80b0394972",
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

#[test]
fn every_plane_world_keeps_its_shape() {
    let mut rows = PINNED.iter();
    for cp in CpKind::all() {
        for replicas in [false, true] {
            for armed in [false, true] {
                let want = rows.next().expect("one pinned row per world");
                assert_eq!(shape(cp, replicas, armed), *want);
            }
        }
    }
    assert!(rows.next().is_none(), "one world per pinned row");
}
