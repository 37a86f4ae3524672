//! LISP control messages: Map-Request and Map-Reply
//! (draft-farinacci-lisp-08 §6, simplified to IPv4 AFIs).
//!
//! These are carried as UDP payloads on port 4342. The reproduction's
//! baseline mapping systems (ALT, CONS, NERD-update, MR/MS) all exchange
//! these records; the PCE control plane reuses [`MapRecord`] inside its own
//! port-`P` encapsulation (see [`crate::pcewire`]).
//!
//! Layout used here (big-endian):
//!
//! ```text
//! MapRequest:
//!   u8  type (=1) | u8 flags | u16 hop_count
//!   u32 nonce_hi | u32 nonce_lo
//!   u32 source_eid | u32 target_eid
//!   u32 itr_rloc          (reply goes here)
//! MapReply:
//!   u8  type (=2) | u8 flags | u16 record_count
//!   u32 nonce_hi | u32 nonce_lo
//!   MapRecord * record_count
//! MapRecord:
//!   u32 eid_prefix | u8 prefix_len | u8 locator_count | u16 ttl_minutes
//!   Locator * locator_count
//! Locator:
//!   u32 rloc | u8 priority | u8 weight | u8 flags(reachable=0x01) | u8 mbz
//! ```

use crate::error::{WireError, WireResult};
use crate::ipv4::Ipv4Address;
use crate::wire::{Reader, Writer};
use std::sync::Arc;

/// Message type code for Map-Request.
pub const TYPE_MAP_REQUEST: u8 = 1;
/// Message type code for Map-Reply.
pub const TYPE_MAP_REPLY: u8 = 2;
/// Message type code for a NERD-style database push chunk.
pub const TYPE_DB_PUSH: u8 = 3;
/// Message type code for an RLOC reachability probe.
pub const TYPE_RLOC_PROBE: u8 = 4;
/// Message type code for an RLOC probe acknowledgement.
pub const TYPE_RLOC_PROBE_ACK: u8 = 5;

/// One routing locator with its selection attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Locator {
    /// The RLOC address.
    pub rloc: Ipv4Address,
    /// Priority: lower is preferred; 255 means "do not use".
    pub priority: u8,
    /// Weight for load-splitting among equal-priority locators.
    pub weight: u8,
    /// Whether the locator is currently reachable.
    pub reachable: bool,
}

impl Locator {
    /// Wire size of one locator entry.
    pub const WIRE_LEN: usize = 8;

    /// A reachable locator with the given priority and weight.
    pub fn new(rloc: Ipv4Address, priority: u8, weight: u8) -> Self {
        Self {
            rloc,
            priority,
            weight,
            reachable: true,
        }
    }

    fn emit(&self, w: &mut Writer) {
        w.addr(self.rloc).u8(self.priority).u8(self.weight);
        w.u8(u8::from(self.reachable)).u8(0);
    }

    fn parse(r: &mut Reader) -> WireResult<Self> {
        let rloc = r.addr()?;
        let [priority, weight, flags, _] = r.array()?;
        Ok(Self {
            rloc,
            priority,
            weight,
            reachable: flags & 0x01 != 0,
        })
    }
}

/// An EID-prefix to locator-set mapping record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRecord {
    /// The EID prefix address (network part).
    pub eid_prefix: Ipv4Address,
    /// Prefix length in bits (0–32).
    pub prefix_len: u8,
    /// Record TTL in minutes (how long an ITR may cache it).
    pub ttl_minutes: u16,
    /// The locator set.
    pub locators: Vec<Locator>,
}

impl MapRecord {
    /// A host record (/32) with a single locator.
    pub fn host(eid: Ipv4Address, rloc: Ipv4Address, ttl_minutes: u16) -> Self {
        Self {
            eid_prefix: eid,
            prefix_len: 32,
            ttl_minutes,
            locators: vec![Locator::new(rloc, 1, 100)],
        }
    }

    /// Wire size of this record.
    pub fn wire_len(&self) -> usize {
        8 + self.locators.len() * Locator::WIRE_LEN
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        w.addr(self.eid_prefix).u8(self.prefix_len);
        w.u8(self.locators.len() as u8).u16(self.ttl_minutes);
        for l in &self.locators {
            l.emit(w);
        }
    }

    pub(crate) fn parse(r: &mut Reader) -> WireResult<Self> {
        let eid_prefix = r.addr()?;
        let [prefix_len, locator_count] = r.array()?;
        let ttl_minutes = r.u16()?;
        if prefix_len > 32 {
            return Err(WireError::Malformed);
        }
        Ok(Self {
            eid_prefix,
            prefix_len,
            ttl_minutes,
            locators: (0..locator_count)
                .map(|_| Locator::parse(r))
                .collect::<WireResult<_>>()?,
        })
    }

    /// The best locator: lowest priority among reachable ones, ties broken
    /// by highest weight then lowest address (deterministic).
    pub fn best_locator(&self) -> Option<&Locator> {
        self.locators
            .iter()
            .filter(|l| l.reachable && l.priority < 255)
            .min_by_key(|l| (l.priority, core::cmp::Reverse(l.weight), l.rloc))
    }
}

fn parse_records(r: &mut Reader, count: u16) -> WireResult<Vec<MapRecord>> {
    (0..count).map(|_| MapRecord::parse(r)).collect()
}

/// A Map-Request control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapRequest {
    /// Request nonce, echoed in the reply.
    pub nonce: u64,
    /// The EID of the flow source (for the ETR's reverse-mapping use).
    pub source_eid: Ipv4Address,
    /// The EID whose mapping is requested.
    pub target_eid: Ipv4Address,
    /// The RLOC the reply should be sent to.
    pub itr_rloc: Ipv4Address,
    /// Overlay hop budget (decremented by ALT/CONS overlay routers).
    pub hop_count: u16,
}

impl MapRequest {
    /// Wire length of a Map-Request.
    pub const WIRE_LEN: usize = 4 + 8 + 4 + 4 + 4;

    pub(crate) fn emit(&self, w: &mut Writer) {
        w.u8(TYPE_MAP_REQUEST)
            .u8(0)
            .u16(self.hop_count)
            .u64(self.nonce);
        w.addr(self.source_eid)
            .addr(self.target_eid)
            .addr(self.itr_rloc);
    }

    /// Read the message that follows the type byte.
    pub(crate) fn parse(r: &mut Reader) -> WireResult<Self> {
        let _flags = r.u8()?;
        Ok(Self {
            hop_count: r.u16()?,
            nonce: r.u64()?,
            source_eid: r.addr()?,
            target_eid: r.addr()?,
            itr_rloc: r.addr()?,
        })
    }
}

/// A Map-Reply control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapReply {
    /// Echoed request nonce.
    pub nonce: u64,
    /// Mapping records.
    pub records: Vec<MapRecord>,
}

impl MapReply {
    /// Exact wire length, computed.
    pub fn wire_len(&self) -> usize {
        12 + self.records.iter().map(MapRecord::wire_len).sum::<usize>()
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        w.u8(TYPE_MAP_REPLY)
            .u8(0)
            .u16(self.records.len() as u16)
            .u64(self.nonce);
        for r in &self.records {
            r.emit(w);
        }
    }

    /// Read the message that follows the type byte.
    pub(crate) fn parse(r: &mut Reader) -> WireResult<Self> {
        let (_flags, count, nonce) = (r.u8()?, r.u16()?, r.u64()?);
        let records = parse_records(r, count)?;
        Ok(Self { nonce, records })
    }
}

/// A NERD-style database push chunk: a sequence of map records plus a
/// database version number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbPush {
    /// Monotonic database version.
    pub version: u32,
    /// Chunk sequence number.
    pub chunk: u16,
    /// Total number of chunks in this version.
    pub total_chunks: u16,
    /// Records in this chunk. Shared: a push round builds each chunk
    /// once and every subscriber's packet holds the same records.
    pub records: Arc<[MapRecord]>,
}

impl DbPush {
    /// Exact wire length, computed.
    pub fn wire_len(&self) -> usize {
        12 + self.records.iter().map(MapRecord::wire_len).sum::<usize>()
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        w.u8(TYPE_DB_PUSH).u8(0).u16(self.records.len() as u16);
        w.u32(self.version).u16(self.chunk).u16(self.total_chunks);
        for r in self.records.iter() {
            r.emit(w);
        }
    }

    /// Read the message that follows the type byte.
    pub(crate) fn parse(r: &mut Reader) -> WireResult<Self> {
        let (_flags, count) = (r.u8()?, r.u16()?);
        Ok(Self {
            version: r.u32()?,
            chunk: r.u16()?,
            total_chunks: r.u16()?,
            records: parse_records(r, count)?.into(),
        })
    }
}

/// An RLOC reachability probe (or its acknowledgement): the liveness
/// primitive of the dynamics subsystem (DESIGN.md §7). An xTR probes
/// every remote locator its mapping state references; a probe that is
/// not acknowledged within the configured timeout declares the locator
/// unreachable and invalidates the state that references it.
///
/// ```text
/// u8 type (=4 probe, =5 ack) | u8 flags | u16 mbz
/// u32 nonce_hi | u32 nonce_lo
/// u32 origin        (the prober's / acker's own RLOC)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlocProbe {
    /// Probe nonce, echoed in the acknowledgement.
    pub nonce: u64,
    /// The sender's own RLOC (reply target for probes; acker identity
    /// for acknowledgements).
    pub origin: Ipv4Address,
    /// `false` = probe, `true` = acknowledgement.
    pub ack: bool,
}

impl RlocProbe {
    /// Wire length of a probe / ack.
    pub const WIRE_LEN: usize = 4 + 8 + 4;

    pub(crate) fn emit(&self, w: &mut Writer) {
        let ty = if self.ack {
            TYPE_RLOC_PROBE_ACK
        } else {
            TYPE_RLOC_PROBE
        };
        w.u8(ty).u8(0).u16(0).u64(self.nonce).addr(self.origin);
    }

    /// Read the message that follows the type byte (`ack` tells which
    /// of the two it was).
    pub(crate) fn parse(r: &mut Reader, ack: bool) -> WireResult<Self> {
        let _flags_mbz = r.array::<3>()?;
        Ok(Self {
            nonce: r.u64()?,
            origin: r.addr()?,
            ack,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CtlMsg;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address::new(a, b, c, d)
    }

    /// Encode `msg`, check its computed length, and decode it back.
    fn roundtrip(msg: CtlMsg) -> (Vec<u8>, CtlMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_len());
        let back = CtlMsg::from_bytes(&bytes).unwrap();
        (bytes, back)
    }

    #[test]
    fn map_request_roundtrip() {
        let req = MapRequest {
            nonce: 0xdead_beef_cafe_f00d,
            source_eid: addr(100, 1, 1, 1),
            target_eid: addr(101, 2, 2, 2),
            itr_rloc: addr(10, 0, 0, 1),
            hop_count: 16,
        };
        let (bytes, back) = roundtrip(CtlMsg::Request(req));
        assert_eq!(bytes.len(), MapRequest::WIRE_LEN);
        assert_eq!(back, CtlMsg::Request(req));
        assert_eq!(bytes[0], TYPE_MAP_REQUEST);
    }

    #[test]
    fn map_reply_roundtrip_multi_record() {
        let reply = MapReply {
            nonce: 7,
            records: vec![
                MapRecord {
                    eid_prefix: addr(101, 0, 0, 0),
                    prefix_len: 8,
                    ttl_minutes: 60,
                    locators: vec![
                        Locator::new(addr(12, 0, 0, 1), 1, 50),
                        Locator::new(addr(13, 0, 0, 1), 1, 50),
                    ],
                },
                MapRecord::host(addr(101, 2, 2, 2), addr(12, 0, 0, 1), 5),
            ],
        };
        let (bytes, back) = roundtrip(CtlMsg::Reply(reply.clone()));
        assert_eq!(bytes[0], TYPE_MAP_REPLY);
        assert_eq!(back, CtlMsg::Reply(reply));
    }

    #[test]
    fn best_locator_prefers_low_priority() {
        let rec = MapRecord {
            eid_prefix: addr(101, 0, 0, 0),
            prefix_len: 8,
            ttl_minutes: 60,
            locators: vec![
                Locator::new(addr(12, 0, 0, 1), 2, 100),
                Locator::new(addr(13, 0, 0, 1), 1, 10),
            ],
        };
        assert_eq!(rec.best_locator().unwrap().rloc, addr(13, 0, 0, 1));
    }

    #[test]
    fn best_locator_skips_unreachable_and_255() {
        let mut l1 = Locator::new(addr(12, 0, 0, 1), 1, 100);
        l1.reachable = false;
        let l2 = Locator::new(addr(13, 0, 0, 1), 255, 100);
        let l3 = Locator::new(addr(13, 0, 0, 2), 9, 1);
        let rec = MapRecord {
            eid_prefix: addr(101, 0, 0, 0),
            prefix_len: 8,
            ttl_minutes: 60,
            locators: vec![l1, l2, l3],
        };
        assert_eq!(rec.best_locator().unwrap().rloc, addr(13, 0, 0, 2));
    }

    #[test]
    fn best_locator_ties_break_by_weight() {
        let rec = MapRecord {
            eid_prefix: addr(101, 0, 0, 0),
            prefix_len: 8,
            ttl_minutes: 60,
            locators: vec![
                Locator::new(addr(12, 0, 0, 1), 1, 10),
                Locator::new(addr(13, 0, 0, 1), 1, 90),
            ],
        };
        assert_eq!(rec.best_locator().unwrap().rloc, addr(13, 0, 0, 1));
    }

    #[test]
    fn db_push_roundtrip() {
        let push = DbPush {
            version: 42,
            chunk: 1,
            total_chunks: 3,
            records: Arc::from([MapRecord::host(addr(101, 2, 2, 2), addr(12, 0, 0, 1), 1440)]),
        };
        let (bytes, back) = roundtrip(CtlMsg::DbPush(push.clone()));
        assert_eq!(bytes[0], TYPE_DB_PUSH);
        assert_eq!(back, CtlMsg::DbPush(push));
    }

    #[test]
    fn rloc_probe_roundtrip_both_kinds() {
        for ack in [false, true] {
            let p = RlocProbe {
                nonce: 0x0123_4567_89ab_cdef,
                origin: addr(10, 0, 0, 1),
                ack,
            };
            let (bytes, back) = roundtrip(CtlMsg::Probe(p));
            assert_eq!(bytes.len(), RlocProbe::WIRE_LEN);
            assert_eq!(back, CtlMsg::Probe(p));
            assert_eq!(
                bytes[0],
                if ack {
                    TYPE_RLOC_PROBE_ACK
                } else {
                    TYPE_RLOC_PROBE
                }
            );
        }
        assert_eq!(
            CtlMsg::from_bytes(&[TYPE_RLOC_PROBE, 0, 0]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn wrong_type_rejected() {
        let req = MapRequest {
            nonce: 1,
            source_eid: addr(1, 1, 1, 1),
            target_eid: addr(2, 2, 2, 2),
            itr_rloc: addr(3, 3, 3, 3),
            hop_count: 1,
        };
        let mut bytes = CtlMsg::Request(req).to_bytes();
        for ty in [0, 6, 9, 0xff] {
            bytes[0] = ty;
            assert_eq!(
                CtlMsg::from_bytes(&bytes).unwrap_err(),
                WireError::UnknownType
            );
        }
    }

    #[test]
    fn truncated_record_rejected() {
        let rec = MapRecord::host(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 10);
        let out = Writer::collect(|w| rec.emit(w));
        assert_eq!(out.len(), rec.wire_len());
        let short = &out[..out.len() - 1];
        assert_eq!(
            MapRecord::parse(&mut Reader::new(short)).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn bad_prefix_len_rejected() {
        let rec = MapRecord::host(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 10);
        let mut out = Writer::collect(|w| rec.emit(w));
        out[4] = 33;
        assert_eq!(
            MapRecord::parse(&mut Reader::new(&out)).unwrap_err(),
            WireError::Malformed
        );
    }
}
