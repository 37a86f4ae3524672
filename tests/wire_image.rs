//! The wire image, pinned. Packets travel the engine as typed values
//! and are encoded only lazily, so no other golden hashes packet bytes:
//! these digests are the fixed point for any change to the `lispwire`
//! codecs. Part (a) hashes the engine's opt-in packet log over a small
//! world of every control plane; part (b) hashes `encode()` of one
//! hand-built packet per `Packet`/`CtlMsg`/`PceMsg` variant.

use lispwire::dnswire::{Message, Name, Rcode, Record};
use lispwire::lisp::LispRepr;
use lispwire::lispctl::{DbPush, Locator, MapRecord, MapReply, MapRequest, RlocProbe};
use lispwire::packet::{ConsMsg, CtlMsg, Packet, PceMsg};
use lispwire::pcewire::{FlowMapping, IpcQueryNotice, PceFlowMsg, PceKind};
use lispwire::ports;
use lispwire::tcpseg::{TcpFlags, TcpRepr};
use lispwire::Ipv4Address;
use netsim::trace::fnv64;
use netsim::Ns;
use pcelisp::scenario::CpKind;
use pcelisp::spec::ScenarioSpec;

/// `(plane, pkt rx lines, fnv64 of those lines)` for
/// `multi_site(cp, 4, 2)` at seed 1, run for 10 s. Every xTR nonce
/// (Map-Request, RLOC probe, LISP data header) is drawn from the world's
/// seeded RNG, so the LISP rows pin those draws too.
const PACKET_LOG: &[(&str, usize, u64)] = &[
    ("no-lisp", 264, 0x46cd399f60dfab1b),
    ("lisp-drop", 350, 0x0136c84fa308bb96),
    ("lisp-queue", 386, 0xbef0d43571d05041),
    ("lisp-data-cp", 386, 0x30a45c83057929c1),
    ("lisp-alt-4", 368, 0x170e50ce5da526d0),
    ("lisp-cons-1", 380, 0xd9f6e209d1d9cfd0),
    ("nerd", 388, 0x93d8c620d1f72f4c),
    ("pce", 484, 0xda6aeaaccbf82b8b),
];

#[test]
fn packet_log_digests_are_pinned() {
    let mut got = Vec::new();
    for cp in CpKind::all() {
        let mut world = ScenarioSpec::multi_site(cp, 4, 2).build(1);
        world.sim.trace.enable_packet_log();
        world.schedule_all_flows();
        world.sim.run_until(Ns::from_secs(10));
        let log: String = world
            .sim
            .trace
            .render()
            .lines()
            .filter(|l| l.contains("pkt rx"))
            .flat_map(|l| [l, "\n"])
            .collect();
        got.push((
            cp.label().into_owned(),
            log.lines().count(),
            fnv64(log.as_bytes()),
        ));
    }
    let want: Vec<_> = PACKET_LOG
        .iter()
        .map(|&(l, n, h)| (l.to_string(), n, h))
        .collect();
    assert_eq!(got, want, "packet-log digests drifted:\n{}", rows(&got));
}

/// Render pinned rows the way the tables above spell them.
fn rows(got: &[(String, usize, u64)]) -> String {
    got.iter()
        .map(|(l, n, h)| format!("    (\"{l}\", {n}, {h:#018x}),\n"))
        .collect()
}

fn a(x: u8, y: u8, z: u8, w: u8) -> Ipv4Address {
    Ipv4Address::new(x, y, z, w)
}

fn request() -> MapRequest {
    MapRequest {
        nonce: 0x0123_4567_89ab_cdef,
        source_eid: a(100, 0, 0, 5),
        target_eid: a(101, 0, 0, 7),
        itr_rloc: a(10, 0, 0, 1),
        hop_count: 16,
    }
}

fn record() -> MapRecord {
    let mut down = Locator::new(a(13, 0, 0, 1), 2, 30);
    down.reachable = false;
    MapRecord {
        eid_prefix: a(101, 0, 0, 0),
        prefix_len: 24,
        ttl_minutes: 60,
        locators: vec![Locator::new(a(12, 0, 0, 1), 1, 70), down],
    }
}

fn reply() -> MapReply {
    MapReply {
        nonce: 0x0123_4567_89ab_cdef,
        records: vec![
            record(),
            MapRecord::host(a(101, 0, 1, 9), a(14, 0, 0, 1), 5),
        ],
    }
}

fn dns_answer() -> Message {
    let name = |s: &str| Name::parse_str(s).unwrap();
    let mut m = Message::response_to(&Message::query_a(0x4242, name("host.d.example"), true));
    m.authoritative = true;
    m.recursion_available = true;
    m.answers
        .push(Record::a(name("host.d.example"), a(101, 0, 0, 7), 300));
    m.authority
        .push(Record::ns(name("d.example"), name("ns1.d.example"), 86400));
    m.additional
        .push(Record::a(name("ns1.d.example"), a(12, 0, 0, 53), 86400));
    m
}

fn udp() -> Packet {
    Packet::udp(
        a(100, 0, 0, 5),
        7000,
        a(101, 0, 0, 7),
        7001,
        (0..48).collect(),
    )
}

fn ctl(port: u16, msg: CtlMsg) -> Packet {
    Packet::ctl(a(10, 0, 0, 1), port, a(8, 0, 0, 1), port, msg)
}

fn pce(port: u16, msg: PceMsg) -> Packet {
    Packet::pce(a(12, 0, 0, 200), port, a(10, 0, 0, 53), port, msg)
}

fn every_variant() -> Vec<(&'static str, Packet)> {
    let seg = TcpRepr {
        src_port: 49152,
        dst_port: 80,
        seq: 1000,
        ack: 2001,
        flags: TcpFlags::SYN | TcpFlags::ACK,
    };
    let tunnel = |inner| {
        Packet::lisp_data(
            a(10, 0, 0, 1),
            a(12, 0, 0, 1),
            LispRepr::with_nonce(0xabcdef, 2),
            inner,
        )
    };
    let flow = FlowMapping {
        source_eid: a(100, 0, 0, 5),
        dest_eid: a(101, 0, 0, 7),
        rloc_s: a(11, 0, 0, 1),
        rloc_d: a(13, 0, 0, 1),
        ttl_minutes: 30,
    };
    let cons = |is_reply, inner| {
        CtlMsg::Cons(ConsMsg {
            is_reply,
            orig_itr: a(10, 0, 0, 1),
            via: vec![a(9, 0, 0, 1), a(9, 0, 0, 2)],
            inner: Box::new(inner),
        })
    };
    let dns_reply = Packet::dns(
        a(12, 0, 0, 53),
        ports::DNS,
        a(10, 0, 0, 53),
        32853,
        dns_answer(),
    );
    let mut nx = Message::response_to(&Message::query_a(
        7,
        Name::parse_str("nope.example").unwrap(),
        false,
    ));
    nx.rcode = Rcode::NxDomain;
    vec![
        ("udp", udp()),
        (
            "tcp",
            Packet::tcp(a(100, 0, 0, 5), a(101, 0, 0, 7), seg, b"data!".to_vec()),
        ),
        ("lisp-data", tunnel(udp())),
        ("lisp-in-lisp", tunnel(tunnel(udp()))),
        (
            "map-request",
            ctl(ports::LISP_CONTROL, CtlMsg::Request(request())),
        ),
        (
            "map-reply",
            ctl(ports::LISP_CONTROL, CtlMsg::Reply(reply())),
        ),
        (
            "db-push",
            ctl(
                ports::LISP_CONTROL,
                CtlMsg::DbPush(DbPush {
                    version: 42,
                    chunk: 1,
                    total_chunks: 3,
                    records: vec![record(), record()].into(),
                }),
            ),
        ),
        (
            "rloc-probe",
            ctl(
                ports::LISP_CONTROL,
                CtlMsg::Probe(RlocProbe {
                    nonce: 77,
                    origin: a(10, 0, 0, 1),
                    ack: false,
                }),
            ),
        ),
        (
            "rloc-probe-ack",
            ctl(
                ports::LISP_CONTROL,
                CtlMsg::Probe(RlocProbe {
                    nonce: 77,
                    origin: a(12, 0, 0, 1),
                    ack: true,
                }),
            ),
        ),
        (
            "cons-request",
            ctl(ports::CONS, cons(false, CtlMsg::Request(request()))),
        ),
        (
            "cons-reply",
            ctl(ports::CONS, cons(true, CtlMsg::Reply(reply()))),
        ),
        (
            "pce-dns-mapping",
            pce(
                ports::PCE_MAP,
                PceMsg::DnsMapping {
                    pce_d: a(12, 0, 0, 200),
                    mapping: record(),
                    dns_reply: Box::new(dns_reply.clone()),
                },
            ),
        ),
        (
            "pce-push",
            pce(
                ports::PCE_MAP,
                PceMsg::Flow(PceFlowMsg {
                    kind: PceKind::MappingPush,
                    mapping: flow,
                }),
            ),
        ),
        (
            "pce-withdraw",
            pce(
                ports::PCE_MAP,
                PceMsg::Flow(PceFlowMsg {
                    kind: PceKind::MappingWithdraw,
                    mapping: flow,
                }),
            ),
        ),
        (
            "etr-sync",
            pce(
                ports::ETR_SYNC,
                PceMsg::Flow(PceFlowMsg {
                    kind: PceKind::ReverseSync,
                    mapping: flow,
                }),
            ),
        ),
        (
            "pce-ipc",
            pce(
                ports::PCE_IPC,
                PceMsg::Ipc(IpcQueryNotice {
                    client: a(100, 0, 0, 5),
                    qname: Name::parse_str("host.d.example").unwrap(),
                }),
            ),
        ),
        (
            "dns-query",
            Packet::dns(
                a(10, 0, 0, 53),
                32853,
                a(12, 0, 0, 53),
                ports::DNS,
                Message::query_a(0x4242, Name::parse_str("host.d.example").unwrap(), true),
            ),
        ),
        ("dns-answer", dns_reply),
        (
            "dns-nxdomain",
            Packet::dns(a(12, 0, 0, 53), ports::DNS, a(10, 0, 0, 53), 32853, nx),
        ),
        // Longer than an IPv4 datagram can be: the length fields wrap.
        (
            "udp-oversized",
            Packet::udp(a(1, 1, 1, 1), 1, a(2, 2, 2, 2), 2, vec![7; 65_600]),
        ),
    ]
}

/// `(variant, encode().len(), fnv64 of encode())`.
const ENCODED: &[(&str, usize, u64)] = &[
    ("udp", 76, 0xf99460a43e0de666),
    ("tcp", 45, 0x3d886f40932f0b25),
    ("lisp-data", 112, 0xffcffe738e127462),
    ("lisp-in-lisp", 148, 0x8b547a95dd681065),
    ("map-request", 52, 0x922f8bb9aaae9dec),
    ("map-reply", 80, 0x2c4a3a89374b9fd4),
    ("db-push", 88, 0xdfe33b82572b2e5b),
    ("rloc-probe", 44, 0xc1bee4a91d26b090),
    ("rloc-probe-ack", 44, 0xf7060c9516f5ca60),
    ("cons-request", 69, 0x3bf78b05706836ba),
    ("cons-reply", 97, 0xeafaa4f593fa48b4),
    ("pce-dns-mapping", 217, 0x831794c99cb865e2),
    ("pce-push", 50, 0x10a9ba4869d44a76),
    ("pce-withdraw", 50, 0xc65c9b78a0f9a434),
    ("etr-sync", 50, 0x037b4886b025a156),
    ("pce-ipc", 51, 0x79cc181242964327),
    ("dns-query", 60, 0xead1484b023c82c2),
    ("dns-answer", 155, 0x76c005adec7188b2),
    ("dns-nxdomain", 58, 0x400248876d733e98),
    ("udp-oversized", 65628, 0x5de6f83126548c1d),
];

#[test]
fn encode_digests_are_pinned() {
    let got: Vec<(String, usize, u64)> = every_variant()
        .into_iter()
        .map(|(name, p)| {
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.wire_len(), "{name}");
            (name.to_string(), bytes.len(), fnv64(&bytes))
        })
        .collect();
    let want: Vec<_> = ENCODED
        .iter()
        .map(|&(l, n, h)| (l.to_string(), n, h))
        .collect();
    assert_eq!(got, want, "encode digests drifted:\n{}", rows(&got));
}
