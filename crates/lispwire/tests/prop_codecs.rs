//! Property-based tests for the wire codecs, all through the public
//! encode/decode surface (`Packet::{encode, decode}` and the
//! `to_bytes`/`from_bytes` pairs of `CtlMsg`, `PceMsg` and `Message`):
//! round-trips with arbitrary field values, checksum coverage, and
//! decode-never-panics on random byte soup, on byte soup framed in valid
//! IPv4/UDP headers, and on truncations of valid encodings.

use lispwire::dnswire::{Message, Name, Rcode, Record, MAX_LABEL_LEN, MAX_NAME_LEN};
use lispwire::lisp::LispRepr;
use lispwire::lispctl::{DbPush, Locator, MapRecord, MapReply, MapRequest};
use lispwire::packet::{CtlMsg, Ipv4Header, Packet, PceMsg, UdpPorts};
use lispwire::pcewire::{FlowMapping, PceFlowMsg, PceKind};
use lispwire::ports;
use lispwire::tcpseg::{TcpFlags, TcpRepr};
use lispwire::Ipv4Address;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

fn arb_addr() -> impl Strategy<Value = Ipv4Address> {
    any::<u32>().prop_map(Ipv4Address::from_u32)
}

/// Ports clear of every well-known port the decoder classifies on.
fn arb_port() -> impl Strategy<Value = u16> {
    5000u16..30000
}

/// Every port the decoder classifies a UDP payload on.
const CLASSIFIED_PORTS: [u16; 7] = [
    ports::LISP_DATA,
    ports::LISP_CONTROL,
    ports::CONS,
    ports::PCE_MAP,
    ports::ETR_SYNC,
    ports::PCE_IPC,
    ports::DNS,
];

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

/// Short and long labels, so that names run from a single character to
/// the length limit.
fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[a-z0-9]{1,12}").unwrap(),
        proptest::string::string_regex("[a-z0-9]{1,63}").unwrap(),
    ]
}

/// The longest presentation name: 253 characters are 255 octets on the
/// wire.
const MAX_TEXT_LEN: usize = MAX_NAME_LEN - 2;

/// Presentation text of a valid name as a user might write it: mixed
/// case, sometimes with the trailing dot. Labels are kept while they
/// fit the length limit; with `fill`, more labels take the name to
/// exactly the limit (or one short of it, when only a dot would fit).
fn arb_name_text() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(arb_label(), 0..9),
        any::<bool>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(labels, fill, upper, dot)| {
            let mut text = String::new();
            let push = |text: &mut String, label: &str| {
                if !text.is_empty() {
                    text.push('.');
                }
                text.push_str(label);
            };
            // Characters a next label may have: what is left, less its dot.
            let room = |text: &String| {
                (MAX_TEXT_LEN - text.len()).saturating_sub(usize::from(!text.is_empty()))
            };
            for label in labels {
                if label.len() > room(&text) {
                    break;
                }
                push(&mut text, &label);
            }
            while fill && room(&text) > 0 {
                let label = "z".repeat(room(&text).min(MAX_LABEL_LEN));
                push(&mut text, &label);
            }
            let mut text: String = text
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if upper >> (i % 64) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            if dot {
                text.push('.');
            }
            text
        })
}

fn arb_name() -> impl Strategy<Value = Name> {
    arb_name_text().prop_map(|text| Name::parse_str(&text).unwrap())
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

/// The packet must encode to exactly `wire_len` bytes and decode back.
fn roundtrip(p: &Packet) -> Vec<u8> {
    let bytes = p.encode();
    assert_eq!(bytes.len(), p.wire_len());
    assert_eq!(&Packet::decode(&bytes).unwrap(), p);
    bytes
}

fn ctl_roundtrip(msg: CtlMsg) {
    let bytes = msg.to_bytes();
    assert_eq!(bytes.len(), msg.wire_len());
    assert_eq!(CtlMsg::from_bytes(&bytes).unwrap(), msg);
}

fn pce_roundtrip(msg: PceMsg) {
    let bytes = msg.to_bytes();
    assert_eq!(bytes.len(), msg.wire_len());
    assert_eq!(PceMsg::from_bytes(&bytes).unwrap(), msg);
}

proptest! {
    #[test]
    fn ipv4_roundtrip(src in arb_addr(), dst in arb_addr(), ttl in any::<u8>(),
                      sp in arb_port(), dp in arb_port(), payload in arb_bytes(256)) {
        let p = Packet::Udp {
            ip: Ipv4Header::new(src, dst).with_ttl(ttl),
            ports: UdpPorts::new(sp, dp),
            payload,
        };
        let bytes = roundtrip(&p);
        prop_assert_eq!(&bytes[..2], &[0x45, 0][..]);
        prop_assert_eq!(usize::from(u16::from_be_bytes([bytes[2], bytes[3]])), bytes.len());
        prop_assert_eq!(&bytes[8..10], &[ttl, 17][..]);
        prop_assert_eq!(&bytes[12..16], &src.0[..]);
        prop_assert_eq!(&bytes[16..20], &dst.0[..]);
    }

    #[test]
    fn ipv4_parse_never_panics(soup in arb_bytes(128), port_sel in 0usize..7, cut in any::<usize>()) {
        // Raw soup almost never passes the header checksum ...
        let _ = Packet::decode(&soup);
        // ... so frame it in valid IPv4/UDP headers on a classified port,
        // which hands it to the LISP, control, PCE or DNS decoder.
        let port = CLASSIFIED_PORTS[port_sel];
        let framed = Packet::udp(Ipv4Address::new(10, 0, 0, 1), port, Ipv4Address::new(10, 0, 0, 2), port, soup);
        let bytes = framed.encode();
        let _ = Packet::decode(&bytes);
        // Truncations of a valid encoding are rejected, not panicked on.
        prop_assert!(Packet::decode(&bytes[..cut % bytes.len()]).is_err());
    }

    #[test]
    fn udp_roundtrip(src in arb_addr(), dst in arb_addr(), sp in arb_port(), dp in arb_port(),
                     payload in arb_bytes(256)) {
        let bytes = roundtrip(&Packet::udp(src, sp, dst, dp, payload.clone()));
        prop_assert_eq!(&bytes[20..24], &[(sp >> 8) as u8, sp as u8, (dp >> 8) as u8, dp as u8][..]);
        prop_assert_eq!(&bytes[28..], &payload[..]);
    }

    #[test]
    fn udp_single_bitflip_detected(src in arb_addr(), dst in arb_addr(),
                                   payload in prop::collection::vec(any::<u8>(), 1..64),
                                   flip_byte in 0usize..64, flip_bit in 0u8..8) {
        let mut bytes = Packet::udp(src, 10_000, dst, 20_000, payload.clone()).encode();
        let idx = 28 + (flip_byte % payload.len());
        bytes[idx] ^= 1 << flip_bit;
        // A single bit flip in the payload is always caught by the UDP
        // checksum.
        prop_assert!(Packet::decode(&bytes).is_err());
    }

    #[test]
    fn tcp_roundtrip(src in arb_addr(), dst in arb_addr(), sp in any::<u16>(), dp in any::<u16>(),
                     seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32,
                     payload in arb_bytes(128)) {
        let seg = TcpRepr { src_port: sp, dst_port: dp, seq, ack, flags: TcpFlags(flags) };
        roundtrip(&Packet::tcp(src, dst, seg, payload));
    }

    #[test]
    fn lisp_header_roundtrip(nonce in any::<u32>(), lsb in any::<u32>(), np in any::<bool>(), le in any::<bool>(),
                             inner in arb_bytes(128)) {
        let lisp = LispRepr { nonce: nonce & 0x00ff_ffff, nonce_present: np, lsb, lsb_enabled: le };
        let inner = Packet::udp(Ipv4Address::new(100, 0, 0, 1), 7000, Ipv4Address::new(101, 0, 0, 1), 7001, inner);
        let inner_bytes = inner.encode();
        let p = Packet::lisp_data(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(12, 0, 0, 1), lisp, inner);
        let bytes = roundtrip(&p);
        // The inner packet follows the 8-byte LISP header verbatim.
        prop_assert_eq!(&bytes[36..], &inner_bytes[..]);
    }

    #[test]
    fn map_request_roundtrip(nonce in any::<u64>(), s in arb_addr(), t in arb_addr(),
                             itr in arb_addr(), hops in any::<u16>()) {
        let req = MapRequest { nonce, source_eid: s, target_eid: t, itr_rloc: itr, hop_count: hops };
        ctl_roundtrip(CtlMsg::Request(req));
    }

    #[test]
    fn map_reply_roundtrip(nonce in any::<u64>(), records in prop::collection::vec(arb_map_record(), 0..5)) {
        ctl_roundtrip(CtlMsg::Reply(MapReply { nonce, records }));
    }

    #[test]
    fn db_push_roundtrip(version in any::<u32>(), chunk in any::<u16>(), total in any::<u16>(),
                         records in prop::collection::vec(arb_map_record(), 0..4)) {
        let push = DbPush { version, chunk, total_chunks: total, records: records.into() };
        ctl_roundtrip(CtlMsg::DbPush(push));
    }

    #[test]
    fn lispctl_parse_never_panics(ty_sel in 0usize..7, body in arb_bytes(256)) {
        let _ = CtlMsg::from_bytes(&body);
        // Past the type dispatch: every message decoder sees the soup.
        let ty = [1u8, 2, 3, 4, 5, 0xC5, 0][ty_sel];
        let _ = CtlMsg::from_bytes(&[&[ty][..], &body].concat());
    }

    #[test]
    fn dns_name_roundtrip(name in arb_name()) {
        let msg = Message::query_a(1, name.clone(), false);
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), 12 + name.wire_len() + 4);
        let parsed = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&parsed.question().unwrap().name, &name);
    }

    #[test]
    fn dns_name_parse_never_panics(soup in arb_bytes(64)) {
        // A header announcing one question hands the soup to the name
        // decoder.
        let header = [0u8, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        let _ = Message::from_bytes(&[&header[..], &soup].concat());
    }

    #[test]
    fn dns_message_roundtrip(id in any::<u16>(), qname in arb_name(), rd in any::<bool>(), aa in any::<bool>(), ra in any::<bool>(),
                             rcode in 0u8..16,
                             ans in prop::collection::vec((arb_name(), arb_addr(), any::<u32>()), 0..4),
                             auth in prop::collection::vec((arb_name(), arb_name(), any::<u32>()), 0..3),
                             glue in prop::collection::vec((arb_name(), arb_addr(), any::<u32>()), 0..3)) {
        let mut msg = Message::query_a(id, qname, rd);
        msg.is_response = true;
        msg.authoritative = aa;
        msg.recursion_available = ra;
        msg.rcode = Rcode::from(rcode);
        for (n, a, ttl) in ans {
            msg.answers.push(Record::a(n, a, ttl));
        }
        for (n, ns, ttl) in auth {
            msg.authority.push(Record::ns(n, ns, ttl));
        }
        for (n, a, ttl) in glue {
            msg.additional.push(Record::a(n, a, ttl));
        }
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.wire_len());
        prop_assert_eq!(Message::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn dns_message_parse_never_panics(bytes in arb_bytes(256)) {
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn pce_dns_mapping_roundtrip(pce_d in arb_addr(), mapping in arb_map_record(),
                                 reply_src in arb_addr(), reply_dst in arb_addr(),
                                 id in any::<u16>(), qname in arb_name()) {
        let mut answer = Message::response_to(&Message::query_a(id, qname, false));
        answer.authoritative = true;
        let dns_reply = Box::new(Packet::dns(reply_src, ports::DNS, reply_dst, 32853, answer));
        pce_roundtrip(PceMsg::DnsMapping { pce_d, mapping, dns_reply });
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
        pce_roundtrip(PceMsg::Flow(msg));
    }

    #[test]
    fn pce_parse_never_panics(kind_sel in 0usize..6, body in arb_bytes(256)) {
        let _ = PceMsg::from_bytes(&body);
        // Past the header check: every kind's decoder sees the soup.
        let kind = [1u8, 2, 3, 4, 0xF0, 0][kind_sel];
        let _ = PceMsg::from_bytes(&[&[0x50, 0x43, 1, kind][..], &body].concat());
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

/// `Name` as it was while it owned a `String`: the reference the shared
/// `Name` is checked against, operation by operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct RefName(String);

impl RefName {
    /// Valid presentation text only: strip the trailing dot, lower-case.
    fn parse_str(text: &str) -> Self {
        RefName(text.trim_end_matches('.').to_ascii_lowercase())
    }

    fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    fn label_count(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.split('.').count()
        }
    }

    fn parent(&self) -> RefName {
        match self.0.find('.') {
            Some(i) => RefName(self.0[i + 1..].to_string()),
            None => RefName(String::new()),
        }
    }

    fn is_subdomain_of(&self, other: &RefName) -> bool {
        if other.is_root() {
            return true;
        }
        self.0 == other.0
            || (self.0.len() > other.0.len()
                && self.0.ends_with(other.0.as_str())
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }

    fn wire_len(&self) -> usize {
        if self.0.is_empty() {
            1
        } else {
            self.0.len() + 2
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for label in self.0.split('.').filter(|l| !l.is_empty()) {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
        out
    }

    fn display(&self) -> String {
        if self.0.is_empty() {
            ".".to_string()
        } else {
            self.0.clone()
        }
    }

    /// This name, then each parent, the root last.
    fn chain(&self) -> Vec<RefName> {
        let mut chain = vec![self.clone()];
        while !chain.last().unwrap().is_root() {
            chain.push(chain.last().unwrap().parent());
        }
        chain
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// A second name related to the first: one of its ancestors, a child of
/// it, or an unrelated name.
fn related(text: &str, other: &str, pick: usize) -> String {
    let base = text.trim_end_matches('.');
    match pick % 3 {
        0 => base
            .splitn(pick % 5 + 1, '.')
            .last()
            .unwrap_or("")
            .to_string(),
        1 if base.len() + 4 <= MAX_TEXT_LEN => format!("www.{base}"),
        _ => other.to_string(),
    }
}

proptest! {
    #[test]
    fn name_matches_string_reference(text in arb_name_text(), other in arb_name_text(), pick in 0usize..64) {
        let other = related(&text, &other, pick);
        let (a, b) = (Name::parse_str(&text).unwrap(), Name::parse_str(&other).unwrap());
        let (ra, rb) = (RefName::parse_str(&text), RefName::parse_str(&other));
        prop_assert_eq!(a.as_str(), ra.0.as_str());
        prop_assert_eq!(a == b, ra == rb);
        prop_assert_eq!(a.cmp(&b), ra.cmp(&rb));
        prop_assert_eq!(hash_of(&a), hash_of(&ra));
        prop_assert_eq!(a.to_string(), ra.display());
        prop_assert_eq!(a.label_count(), ra.label_count());
        prop_assert_eq!(a.is_subdomain_of(&b), ra.is_subdomain_of(&rb));
        prop_assert_eq!(b.is_subdomain_of(&a), rb.is_subdomain_of(&ra));
        prop_assert_eq!(a.wire_len(), ra.wire_len());
        let bytes = Message::query_a(0, a.clone(), false).to_bytes();
        prop_assert_eq!(&bytes[12..12 + a.wire_len()], &ra.encode()[..]);
        // The parent chain, as names and as borrowed ancestors.
        let mut chain = vec![a.clone()];
        while !chain.last().unwrap().is_root() {
            chain.push(chain.last().unwrap().parent());
        }
        let ref_chain = ra.chain();
        let texts: Vec<&str> = chain.iter().map(Name::as_str).collect();
        prop_assert_eq!(&texts, &ref_chain.iter().map(|r| r.0.as_str()).collect::<Vec<_>>());
        prop_assert_eq!(a.ancestors().collect::<Vec<_>>(), texts);
        // A clone shares the text; it does not copy it.
        prop_assert!(std::ptr::eq(a.as_str(), a.clone().as_str()));
        // Lookups by `&str` find what lookups by `Name` find.
        let map: BTreeMap<Name, usize> = chain.iter().cloned().zip(0..).chain([(b.clone(), 99)]).collect();
        for probe in chain.iter().chain([&b, &Name::parse_str("not.in.the.map").unwrap()]) {
            prop_assert_eq!(map.get(probe.as_str()), map.get(probe));
        }
    }
}
