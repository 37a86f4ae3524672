//! Equivalence property tests for the typed packet plane (DESIGN.md §9):
//! for every [`Packet`] variant, the computed `wire_len()` equals the
//! materialized `encode().len()`, and the encoded bytes round-trip
//! through the checksum-verifying decoder ([`Packet::decode`]) back to
//! the identical typed value. This pins the typed representation — and
//! therefore all link timing and byte counters — to the wire image.
//! The generators cover what the runtime emits: DNS replies with the
//! AA/RA flags, NXDOMAIN/SERVFAIL codes and glue, and CONS wrappers
//! around both Map-Requests and the Map-Replies CARs send back.

use lispwire::dnswire::{Message, Name, Rcode, Record};
use lispwire::lisp::LispRepr;
use lispwire::lispctl::{DbPush, Locator, MapRecord, MapReply, MapRequest, RlocProbe};
use lispwire::packet::{ConsMsg, CtlMsg, Packet, PceMsg};
use lispwire::pcewire::{FlowMapping, IpcQueryNotice, PceFlowMsg, PceKind};
use lispwire::ports;
use lispwire::tcpseg::{TcpFlags, TcpRepr};
use lispwire::Ipv4Address;
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Address> {
    any::<u32>().prop_map(Ipv4Address::from_u32)
}

/// Ports clear of every well-known port the decoder classifies on.
fn arb_port() -> impl Strategy<Value = u16> {
    5000u16..30000
}

fn arb_locator() -> impl Strategy<Value = Locator> {
    (arb_addr(), any::<u8>(), any::<u8>(), any::<bool>()).prop_map(
        |(rloc, priority, weight, reachable)| Locator {
            rloc,
            priority,
            weight,
            reachable,
        },
    )
}

fn arb_map_record() -> impl Strategy<Value = MapRecord> {
    (
        arb_addr(),
        0u8..=32,
        any::<u16>(),
        prop::collection::vec(arb_locator(), 0..5),
    )
        .prop_map(
            |(eid_prefix, prefix_len, ttl_minutes, locators)| MapRecord {
                eid_prefix,
                prefix_len,
                ttl_minutes,
                locators,
            },
        )
}

fn arb_name() -> impl Strategy<Value = Name> {
    prop::collection::vec(
        proptest::string::string_regex("[a-z0-9]{1,12}").unwrap(),
        0..4,
    )
    .prop_map(|labels| Name::parse_str(&labels.join(".")).unwrap())
}

fn arb_message() -> impl Strategy<Value = Message> {
    let flags = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    let rcode = prop_oneof![
        Just(Rcode::NoError),
        Just(Rcode::NxDomain),
        Just(Rcode::ServFail),
        (0u8..16).prop_map(Rcode::from),
    ];
    let a_records = || prop::collection::vec((arb_name(), arb_addr(), any::<u32>()), 0..3);
    (
        (any::<u16>(), flags, rcode, arb_name()),
        a_records(),
        prop::collection::vec((arb_name(), arb_name(), any::<u32>()), 0..2),
        a_records(),
    )
        .prop_map(
            |((id, (rd, is_response, aa, ra), rcode, qname), answers, nss, glue)| {
                let mut m = Message::query_a(id, qname, rd);
                m.is_response = is_response;
                m.authoritative = aa;
                m.recursion_available = ra;
                m.rcode = rcode;
                for (n, a, ttl) in answers {
                    m.answers.push(Record::a(n, a, ttl));
                }
                for (n, ns, ttl) in nss {
                    m.authority.push(Record::ns(n, ns, ttl));
                }
                for (n, a, ttl) in glue {
                    m.additional.push(Record::a(n, a, ttl));
                }
                m
            },
        )
}

fn arb_request() -> impl Strategy<Value = MapRequest> {
    (
        any::<u64>(),
        arb_addr(),
        arb_addr(),
        arb_addr(),
        any::<u16>(),
    )
        .prop_map(
            |(nonce, source_eid, target_eid, itr_rloc, hop_count)| MapRequest {
                nonce,
                source_eid,
                target_eid,
                itr_rloc,
                hop_count,
            },
        )
}

fn arb_reply() -> impl Strategy<Value = CtlMsg> {
    (any::<u64>(), prop::collection::vec(arb_map_record(), 0..4))
        .prop_map(|(nonce, records)| CtlMsg::Reply(MapReply { nonce, records }))
}

fn arb_ctl() -> impl Strategy<Value = CtlMsg> {
    let req = arb_request().prop_map(CtlMsg::Request).boxed();
    let reply = arb_reply().boxed();
    let push = (
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop::collection::vec(arb_map_record(), 0..4),
    )
        .prop_map(|(version, chunk, total_chunks, records)| {
            CtlMsg::DbPush(DbPush {
                version,
                chunk,
                total_chunks,
                records: records.into(),
            })
        })
        .boxed();
    let probe = (any::<u64>(), arb_addr(), any::<bool>())
        .prop_map(|(nonce, origin, ack)| CtlMsg::Probe(RlocProbe { nonce, origin, ack }))
        .boxed();
    // A request going up the CAR/CDR hierarchy, or the reply retracing it.
    let cons_inner = prop_oneof![arb_request().prop_map(CtlMsg::Request), arb_reply()];
    let cons = (
        any::<bool>(),
        arb_addr(),
        prop::collection::vec(arb_addr(), 0..5),
        cons_inner,
    )
        .prop_map(|(is_reply, orig_itr, via, inner)| {
            CtlMsg::Cons(ConsMsg {
                is_reply,
                orig_itr,
                via,
                inner: Box::new(inner),
            })
        })
        .boxed();
    proptest::strategy::Union::new(vec![req, reply, push, probe, cons])
}

fn arb_flow() -> impl Strategy<Value = FlowMapping> {
    (arb_addr(), arb_addr(), arb_addr(), arb_addr(), any::<u16>()).prop_map(
        |(source_eid, dest_eid, rloc_s, rloc_d, ttl_minutes)| FlowMapping {
            source_eid,
            dest_eid,
            rloc_s,
            rloc_d,
            ttl_minutes,
        },
    )
}

fn arb_data_packet() -> impl Strategy<Value = Packet> {
    (
        arb_addr(),
        arb_port(),
        arb_addr(),
        arb_port(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(src, sp, dst, dp, payload)| Packet::udp(src, sp, dst, dp, payload))
}

fn check(p: &Packet) {
    let bytes = p.encode();
    assert_eq!(
        bytes.len(),
        p.wire_len(),
        "wire_len must equal encode().len() for {p:?}"
    );
    let decoded = Packet::decode(&bytes).expect("decoder must accept encoded packet");
    assert_eq!(&decoded, p, "round-trip must be lossless");
}

proptest! {
    #[test]
    fn udp_variant_equivalent(p in arb_data_packet()) {
        check(&p);
    }

    #[test]
    fn tcp_variant_equivalent(
        src in arb_addr(), dst in arb_addr(),
        sp in arb_port(), dp in arb_port(),
        seq in any::<u32>(), ack in any::<u32>(),
        syn in any::<bool>(), ack_flag in any::<bool>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut flags = TcpFlags::empty();
        if syn { flags = flags | TcpFlags::SYN; }
        if ack_flag { flags = flags | TcpFlags::ACK; }
        let seg = TcpRepr { src_port: sp, dst_port: dp, seq, ack, flags };
        check(&Packet::tcp(src, dst, seg, payload));
    }

    #[test]
    fn lisp_data_variant_equivalent(
        outer_src in arb_addr(), outer_dst in arb_addr(),
        nonce in any::<u32>(), locs in 0u32..8,
        inner in arb_data_packet(),
    ) {
        let p = Packet::lisp_data(outer_src, outer_dst, LispRepr::with_nonce(nonce, locs), inner);
        check(&p);
    }

    #[test]
    fn double_encapsulation_equivalent(inner in arb_data_packet()) {
        // LISP-in-LISP: the structural encapsulation recurses.
        let once = Packet::lisp_data(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(12, 0, 0, 1),
            LispRepr::with_nonce(1, 1),
            inner,
        );
        let twice = Packet::lisp_data(
            Ipv4Address::new(24, 0, 0, 1),
            Ipv4Address::new(25, 0, 0, 1),
            LispRepr::with_nonce(2, 2),
            once,
        );
        check(&twice);
    }

    #[test]
    fn lisp_ctl_variant_equivalent(src in arb_addr(), dst in arb_addr(), msg in arb_ctl()) {
        let port = match msg {
            CtlMsg::Cons(_) => ports::CONS,
            _ => ports::LISP_CONTROL,
        };
        check(&Packet::ctl(src, port, dst, port, msg));
    }

    #[test]
    fn pce_flow_and_ipc_variants_equivalent(
        src in arb_addr(), dst in arb_addr(),
        flow in arb_flow(),
        kind_sel in 0usize..3,
        client in arb_addr(),
        qname in arb_name(),
    ) {
        let kind = [PceKind::MappingPush, PceKind::MappingWithdraw, PceKind::ReverseSync][kind_sel];
        let flow_msg = PceMsg::Flow(PceFlowMsg { kind, mapping: flow });
        check(&Packet::pce(src, ports::PCE_MAP, dst, ports::PCE_MAP, flow_msg));
        let ipc = PceMsg::Ipc(IpcQueryNotice { client, qname });
        check(&Packet::pce(src, ports::PCE_IPC, dst, ports::PCE_IPC, ipc));
    }

    #[test]
    fn pce_dns_mapping_variant_equivalent(
        src in arb_addr(), dst in arb_addr(),
        pce_d in arb_addr(),
        mapping in arb_map_record(),
        reply_src in arb_addr(), reply_dst in arb_addr(),
        client_port in arb_port(),
        msg in arb_message(),
    ) {
        let reply = Packet::dns(reply_src, ports::DNS, reply_dst, client_port, msg);
        let p = Packet::pce(
            src,
            ports::PCE_MAP,
            dst,
            ports::PCE_MAP,
            PceMsg::DnsMapping { pce_d, mapping, dns_reply: Box::new(reply) },
        );
        check(&p);
    }

    #[test]
    fn dns_variant_equivalent(
        src in arb_addr(), dst in arb_addr(),
        client_port in arb_port(),
        msg in arb_message(),
    ) {
        check(&Packet::dns(src, ports::DNS, dst, client_port, msg.clone()));
        check(&Packet::dns(dst, client_port, src, ports::DNS, msg));
    }
}
