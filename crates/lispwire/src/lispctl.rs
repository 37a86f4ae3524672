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

    fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rloc.0);
        out.push(self.priority);
        out.push(self.weight);
        out.push(if self.reachable { 0x01 } else { 0x00 });
        out.push(0);
    }

    fn parse(buf: &[u8]) -> WireResult<(Self, &[u8])> {
        if buf.len() < Self::WIRE_LEN {
            return Err(WireError::Truncated);
        }
        let rloc = Ipv4Address([buf[0], buf[1], buf[2], buf[3]]);
        let loc = Self {
            rloc,
            priority: buf[4],
            weight: buf[5],
            reachable: buf[6] & 0x01 != 0,
        };
        Ok((loc, &buf[Self::WIRE_LEN..]))
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

    /// Append wire bytes to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.eid_prefix.0);
        out.push(self.prefix_len);
        out.push(self.locators.len() as u8);
        out.extend_from_slice(&self.ttl_minutes.to_be_bytes());
        for l in &self.locators {
            l.emit(out);
        }
    }

    /// Parse one record, returning the remaining bytes.
    pub fn parse(buf: &[u8]) -> WireResult<(Self, &[u8])> {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        let eid_prefix = Ipv4Address([buf[0], buf[1], buf[2], buf[3]]);
        let prefix_len = buf[4];
        if prefix_len > 32 {
            return Err(WireError::Malformed);
        }
        let locator_count = buf[5] as usize;
        let ttl_minutes = u16::from_be_bytes([buf[6], buf[7]]);
        let mut rest = &buf[8..];
        let mut locators = Vec::with_capacity(locator_count);
        for _ in 0..locator_count {
            let (l, r) = Locator::parse(rest)?;
            locators.push(l);
            rest = r;
        }
        Ok((
            Self {
                eid_prefix,
                prefix_len,
                ttl_minutes,
                locators,
            },
            rest,
        ))
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

    /// Serialize to owned bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.push(TYPE_MAP_REQUEST);
        out.push(0);
        out.extend_from_slice(&self.hop_count.to_be_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out.extend_from_slice(&self.source_eid.0);
        out.extend_from_slice(&self.target_eid.0);
        out.extend_from_slice(&self.itr_rloc.0);
        out
    }

    /// Parse from bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < Self::WIRE_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] != TYPE_MAP_REQUEST {
            return Err(WireError::UnknownType);
        }
        Ok(Self {
            hop_count: u16::from_be_bytes([buf[2], buf[3]]),
            nonce: u64::from_be_bytes(buf[4..12].try_into().unwrap()),
            source_eid: Ipv4Address(buf[12..16].try_into().unwrap()),
            target_eid: Ipv4Address(buf[16..20].try_into().unwrap()),
            itr_rloc: Ipv4Address(buf[20..24].try_into().unwrap()),
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
    /// Exact length of [`MapReply::to_bytes`], computed.
    pub fn wire_len(&self) -> usize {
        12 + self.records.iter().map(|r| r.wire_len()).sum::<usize>()
    }

    /// Serialize to owned bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(12 + self.records.iter().map(|r| r.wire_len()).sum::<usize>());
        out.push(TYPE_MAP_REPLY);
        out.push(0);
        out.extend_from_slice(&(self.records.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        for r in &self.records {
            r.emit(&mut out);
        }
        out
    }

    /// Parse from bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < 12 {
            return Err(WireError::Truncated);
        }
        if buf[0] != TYPE_MAP_REPLY {
            return Err(WireError::UnknownType);
        }
        let record_count = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let nonce = u64::from_be_bytes(buf[4..12].try_into().unwrap());
        let mut rest = &buf[12..];
        let mut records = Vec::with_capacity(record_count.min(64));
        for _ in 0..record_count {
            let (r, next) = MapRecord::parse(rest)?;
            records.push(r);
            rest = next;
        }
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
    /// Exact length of [`DbPush::to_bytes`], computed.
    pub fn wire_len(&self) -> usize {
        12 + self.records.iter().map(|r| r.wire_len()).sum::<usize>()
    }

    /// Serialize to owned bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(TYPE_DB_PUSH);
        out.push(0);
        out.extend_from_slice(&(self.records.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&self.chunk.to_be_bytes());
        out.extend_from_slice(&self.total_chunks.to_be_bytes());
        for r in self.records.iter() {
            r.emit(&mut out);
        }
        out
    }

    /// Parse from bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < 12 {
            return Err(WireError::Truncated);
        }
        if buf[0] != TYPE_DB_PUSH {
            return Err(WireError::UnknownType);
        }
        let record_count = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let version = u32::from_be_bytes(buf[4..8].try_into().unwrap());
        let chunk = u16::from_be_bytes([buf[8], buf[9]]);
        let total_chunks = u16::from_be_bytes([buf[10], buf[11]]);
        let mut rest = &buf[12..];
        let mut records = Vec::with_capacity(record_count.min(64));
        for _ in 0..record_count {
            let (r, next) = MapRecord::parse(rest)?;
            records.push(r);
            rest = next;
        }
        Ok(Self {
            version,
            chunk,
            total_chunks,
            records: records.into(),
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

    /// Serialize to owned bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.push(if self.ack {
            TYPE_RLOC_PROBE_ACK
        } else {
            TYPE_RLOC_PROBE
        });
        out.push(0);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out.extend_from_slice(&self.origin.0);
        out
    }

    /// Parse from bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < Self::WIRE_LEN {
            return Err(WireError::Truncated);
        }
        let ack = match buf[0] {
            TYPE_RLOC_PROBE => false,
            TYPE_RLOC_PROBE_ACK => true,
            _ => return Err(WireError::UnknownType),
        };
        Ok(Self {
            nonce: u64::from_be_bytes(buf[4..12].try_into().unwrap()),
            origin: Ipv4Address(buf[12..16].try_into().unwrap()),
            ack,
        })
    }
}

/// Peek the control-message type code of a buffer.
pub fn message_type(buf: &[u8]) -> WireResult<u8> {
    buf.first().copied().ok_or(WireError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address::new(a, b, c, d)
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
        let bytes = req.to_bytes();
        assert_eq!(bytes.len(), MapRequest::WIRE_LEN);
        assert_eq!(MapRequest::from_bytes(&bytes).unwrap(), req);
        assert_eq!(message_type(&bytes).unwrap(), TYPE_MAP_REQUEST);
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
        let bytes = reply.to_bytes();
        assert_eq!(MapReply::from_bytes(&bytes).unwrap(), reply);
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
        let bytes = push.to_bytes();
        assert_eq!(bytes.len(), push.wire_len());
        assert_eq!(DbPush::from_bytes(&bytes).unwrap(), push);
    }

    #[test]
    fn rloc_probe_roundtrip_both_kinds() {
        for ack in [false, true] {
            let p = RlocProbe {
                nonce: 0x0123_4567_89ab_cdef,
                origin: addr(10, 0, 0, 1),
                ack,
            };
            let bytes = p.to_bytes();
            assert_eq!(bytes.len(), RlocProbe::WIRE_LEN);
            assert_eq!(RlocProbe::from_bytes(&bytes).unwrap(), p);
            assert_eq!(
                message_type(&bytes).unwrap(),
                if ack {
                    TYPE_RLOC_PROBE_ACK
                } else {
                    TYPE_RLOC_PROBE
                }
            );
        }
        assert_eq!(
            RlocProbe::from_bytes(&[9u8; 16]).unwrap_err(),
            WireError::UnknownType
        );
        assert_eq!(
            RlocProbe::from_bytes(&[TYPE_RLOC_PROBE, 0, 0]).unwrap_err(),
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
        let bytes = req.to_bytes();
        assert_eq!(
            MapReply::from_bytes(&bytes).unwrap_err(),
            WireError::UnknownType
        );
    }

    #[test]
    fn truncated_record_rejected() {
        let rec = MapRecord::host(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 10);
        let mut out = Vec::new();
        rec.emit(&mut out);
        out.truncate(out.len() - 1);
        assert_eq!(MapRecord::parse(&out).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_prefix_len_rejected() {
        let rec = MapRecord::host(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 10);
        let mut out = Vec::new();
        rec.emit(&mut out);
        out[4] = 33;
        assert_eq!(MapRecord::parse(&out).unwrap_err(), WireError::Malformed);
    }
}
