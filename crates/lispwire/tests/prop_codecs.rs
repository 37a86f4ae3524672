//! Property-based tests for the wire codecs: round-trips with arbitrary
//! field values, and parse-never-panics on random byte soup.

use lispwire::dnswire::{Message, Name, Rcode, Record};
use lispwire::ipv4::{build_ipv4, IpProtocol, Ipv4Address, Ipv4Packet, Ipv4Repr};
use lispwire::lisp::{encapsulate, LispPacket, LispRepr};
use lispwire::lispctl::{DbPush, Locator, MapRecord, MapReply, MapRequest};
use lispwire::pcewire::{FlowMapping, PceDnsMapping, PceFlowMsg, PceKind};
use lispwire::tcpseg::{build_tcp, TcpFlags, TcpPacket, TcpRepr};
use lispwire::udp::{build_udp, UdpPacket, UdpRepr};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Address> {
    any::<u32>().prop_map(Ipv4Address::from_u32)
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
        prop::collection::vec(arb_locator(), 0..6),
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

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,20}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    prop::collection::vec(arb_label(), 0..5)
        .prop_map(|labels| Name::parse_str(&labels.join(".")).unwrap())
}

proptest! {
    #[test]
    fn ipv4_roundtrip(src in arb_addr(), dst in arb_addr(), proto in any::<u8>(), ttl in any::<u8>(),
                      payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let repr = Ipv4Repr {
            src, dst,
            protocol: IpProtocol::from(proto),
            ttl,
            payload_len: payload.len(),
        };
        let bytes = build_ipv4(&repr, &payload);
        let packet = Ipv4Packet::new_checked(&bytes[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(Ipv4Repr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn ipv4_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(packet) = Ipv4Packet::new_checked(&bytes[..]) {
            let _ = Ipv4Repr::parse(&packet);
        }
    }

    #[test]
    fn udp_roundtrip(src in arb_addr(), dst in arb_addr(), sp in any::<u16>(), dp in any::<u16>(),
                     payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let repr = UdpRepr { src_port: sp, dst_port: dp };
        let bytes = build_udp(&repr, src, dst, &payload);
        let packet = UdpPacket::new_checked(&bytes[..]).unwrap();
        prop_assert_eq!(UdpRepr::parse(&packet, src, dst).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn udp_single_bitflip_detected(src in arb_addr(), dst in arb_addr(),
                                   payload in prop::collection::vec(any::<u8>(), 1..64),
                                   flip_byte in 0usize..64, flip_bit in 0u8..8) {
        let repr = UdpRepr { src_port: 10, dst_port: 20 };
        let mut bytes = build_udp(&repr, src, dst, &payload);
        let idx = 8 + (flip_byte % payload.len());
        bytes[idx] ^= 1 << flip_bit;
        let packet = UdpPacket::new_checked(&bytes[..]).unwrap();
        // A single bit flip is always caught by the Internet checksum.
        prop_assert!(UdpRepr::parse(&packet, src, dst).is_err());
    }

    #[test]
    fn tcp_roundtrip(src in arb_addr(), dst in arb_addr(), sp in any::<u16>(), dp in any::<u16>(),
                     seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32,
                     payload in prop::collection::vec(any::<u8>(), 0..128)) {
        let repr = TcpRepr { src_port: sp, dst_port: dp, seq, ack, flags: TcpFlags(flags) };
        let bytes = build_tcp(&repr, src, dst, &payload);
        let packet = TcpPacket::new_checked(&bytes[..]).unwrap();
        prop_assert_eq!(TcpRepr::parse(&packet, src, dst).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn lisp_header_roundtrip(nonce in any::<u32>(), lsb in any::<u32>(), np in any::<bool>(), le in any::<bool>(),
                             inner in prop::collection::vec(any::<u8>(), 0..128)) {
        let repr = LispRepr { nonce: nonce & 0x00ff_ffff, nonce_present: np, lsb, lsb_enabled: le };
        let bytes = encapsulate(&repr, &inner);
        let packet = LispPacket::new_checked(&bytes[..]).unwrap();
        prop_assert_eq!(LispRepr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &inner[..]);
    }

    #[test]
    fn map_request_roundtrip(nonce in any::<u64>(), s in arb_addr(), t in arb_addr(),
                             itr in arb_addr(), hops in any::<u16>()) {
        let req = MapRequest { nonce, source_eid: s, target_eid: t, itr_rloc: itr, hop_count: hops };
        prop_assert_eq!(MapRequest::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn map_reply_roundtrip(nonce in any::<u64>(), records in prop::collection::vec(arb_map_record(), 0..5)) {
        let reply = MapReply { nonce, records };
        prop_assert_eq!(MapReply::from_bytes(&reply.to_bytes()).unwrap(), reply.clone());
    }

    #[test]
    fn db_push_roundtrip(version in any::<u32>(), chunk in any::<u16>(), total in any::<u16>(),
                         records in prop::collection::vec(arb_map_record(), 0..4)) {
        let push = DbPush { version, chunk, total_chunks: total, records: records.into() };
        prop_assert_eq!(DbPush::from_bytes(&push.to_bytes()).unwrap(), push.clone());
    }

    #[test]
    fn lispctl_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = MapRequest::from_bytes(&bytes);
        let _ = MapReply::from_bytes(&bytes);
        let _ = DbPush::from_bytes(&bytes);
    }

    #[test]
    fn dns_name_roundtrip(name in arb_name()) {
        let mut out = Vec::new();
        name.emit(&mut out);
        let (parsed, next) = Name::parse(&out, 0).unwrap();
        prop_assert_eq!(parsed, name.clone());
        prop_assert_eq!(next, out.len());
        prop_assert_eq!(out.len(), name.wire_len());
    }

    #[test]
    fn dns_name_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64), pos in 0usize..64) {
        let _ = Name::parse(&bytes, pos);
    }

    #[test]
    fn dns_message_roundtrip(id in any::<u16>(), qname in arb_name(),
                             ans in prop::collection::vec((arb_name(), arb_addr(), any::<u32>()), 0..4),
                             auth in prop::collection::vec((arb_name(), arb_name(), any::<u32>()), 0..3)) {
        let mut msg = Message::query_a(id, qname, true);
        msg.is_response = true;
        msg.rcode = Rcode::NoError;
        for (n, a, ttl) in ans {
            msg.answers.push(Record::a(n, a, ttl));
        }
        for (n, ns, ttl) in auth {
            msg.authority.push(Record::ns(n, ns, ttl));
        }
        let parsed = Message::from_bytes(&msg.to_bytes()).unwrap();
        prop_assert_eq!(parsed, msg.clone());
    }

    #[test]
    fn dns_message_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn pce_dns_mapping_roundtrip(pce_d in arb_addr(), mapping in arb_map_record(),
                                 reply in prop::collection::vec(any::<u8>(), 0..200)) {
        let msg = PceDnsMapping { pce_d, mapping, dns_reply: reply };
        prop_assert_eq!(PceDnsMapping::from_bytes(&msg.to_bytes()).unwrap(), msg.clone());
    }

    #[test]
    fn pce_flow_roundtrip(s in arb_addr(), d in arb_addr(), rs in arb_addr(), rd in arb_addr(),
                          ttl in any::<u16>(), kind_sel in 0u8..3) {
        let kind = match kind_sel {
            0 => PceKind::MappingPush,
            1 => PceKind::MappingWithdraw,
            _ => PceKind::ReverseSync,
        };
        let msg = PceFlowMsg {
            kind,
            mapping: FlowMapping { source_eid: s, dest_eid: d, rloc_s: rs, rloc_d: rd, ttl_minutes: ttl },
        };
        prop_assert_eq!(PceFlowMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn pce_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = PceDnsMapping::from_bytes(&bytes);
        let _ = PceFlowMsg::from_bytes(&bytes);
        let _ = lispwire::pcewire::peek_kind(&bytes);
    }

    #[test]
    fn checksum_verify_after_fill(data in prop::collection::vec(any::<u8>(), 2..512)) {
        let mut data = data;
        // Zero a checksum slot, compute, insert, verify.
        data[0] = 0;
        data[1] = 0;
        let c = lispwire::checksum::checksum(&data);
        data[0] = (c >> 8) as u8;
        data[1] = c as u8;
        prop_assert!(lispwire::checksum::verify(&data));
    }
}
