//! The PCE control-plane messages of the paper (Fig. 1), carried as
//! [`PceMsg`] on ports `PCE_MAP`, `ETR_SYNC` and `PCE_IPC`.
//!
//! When the destination-domain PCE (`PCE_D`) observes the authoritative DNS
//! reply carrying the resolved EID `E_D`, it wraps the reply in a new UDP
//! message addressed to `DNS_S` on the special port `P`
//! ([`crate::ports::PCE_MAP`]): [`PceMsg::DnsMapping`], the precomputed
//! EID-to-RLOC mapping for `E_D` followed by the original DNS reply
//! packet, so that `PCE_S` can forward the answer to `DNS_S` unmodified
//! (step 7a) while installing the mapping at the ITRs (step 7b).
//!
//! Layout (big-endian):
//!
//! ```text
//! u16 magic (0x5043 "PC") | u8 version (1) | u8 kind
//! DnsMapping:    u32 pce_d_addr   (so PCE_S learns PCE_D's address)
//!                MapRecord        (lispctl wire format; the mapping for E_D)
//!                u16 dns_len | dns_len bytes of the original DNS reply packet
//! flow messages: FlowMapping      (see below)
//! ```
//!
//! `kind` distinguishes the DNS-reply encapsulation from the ITR pushes
//! and withdrawals and from the reverse-mapping sync messages multicast
//! among ETRs after the first data packet arrives (paper §2, after
//! step 8); the kind byte [`IPC_TAG`] marks an [`IpcQueryNotice`].

use crate::dnswire::Name;
use crate::error::{WireError, WireResult};
use crate::ipv4::Ipv4Address;
use crate::lispctl::MapRecord;
use crate::packet::{Packet, PceMsg};
use crate::wire::{Reader, Writer};

/// Magic bytes identifying a PCE control message.
pub const MAGIC: u16 = 0x5043;
/// Current version.
pub const VERSION: u8 = 1;

/// Message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PceKind {
    /// Step 6: encapsulated DNS reply + forward mapping.
    DnsMapping,
    /// ETR-to-ETR reverse-mapping sync (multicast, port `ETR_SYNC`).
    ReverseSync,
    /// PCE-to-ITR mapping installation push (step 7b).
    MappingPush,
    /// PCE-to-ITR mapping withdrawal (TE re-optimisation).
    MappingWithdraw,
}

impl From<PceKind> for u8 {
    fn from(k: PceKind) -> u8 {
        match k {
            PceKind::DnsMapping => 1,
            PceKind::ReverseSync => 2,
            PceKind::MappingPush => 3,
            PceKind::MappingWithdraw => 4,
        }
    }
}

impl TryFrom<u8> for PceKind {
    type Error = WireError;
    fn try_from(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(PceKind::DnsMapping),
            2 => Ok(PceKind::ReverseSync),
            3 => Ok(PceKind::MappingPush),
            4 => Ok(PceKind::MappingWithdraw),
            _ => Err(WireError::UnknownType),
        }
    }
}

/// Write the common header with kind byte `tag`.
fn emit_header(w: &mut Writer, tag: u8) {
    w.u16(MAGIC).u8(VERSION).u8(tag);
}

/// Read the common header, returning its kind byte.
fn parse_header(r: &mut Reader) -> WireResult<u8> {
    let (magic, version, tag) = (r.u16()?, r.u8()?, r.u8()?);
    if magic != MAGIC {
        return Err(WireError::Malformed);
    }
    if version != VERSION {
        return Err(WireError::BadVersion);
    }
    Ok(tag)
}

impl PceMsg {
    /// Exact length of [`PceMsg::to_bytes`], computed.
    pub fn wire_len(&self) -> usize {
        match self {
            PceMsg::DnsMapping {
                mapping, dns_reply, ..
            } => 8 + mapping.wire_len() + 2 + dns_reply.wire_len(),
            PceMsg::Flow(_) => PceFlowMsg::WIRE_LEN,
            PceMsg::Ipc(n) => n.wire_len(),
        }
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        match self {
            PceMsg::DnsMapping {
                pce_d,
                mapping,
                dns_reply,
            } => {
                emit_header(w, PceKind::DnsMapping.into());
                w.addr(*pce_d);
                mapping.emit(w);
                w.len_prefixed(|w| dns_reply.emit(w));
            }
            PceMsg::Flow(f) => f.emit(w),
            PceMsg::Ipc(n) => n.emit(w),
        }
    }

    /// Serialize (the DNS reply is written as its full wire image).
    pub fn to_bytes(&self) -> Vec<u8> {
        Writer::collect(|w| self.emit(w))
    }

    /// Parse, classifying by the header's kind byte.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(buf);
        let tag = parse_header(&mut r)?;
        if tag == IPC_TAG {
            return IpcQueryNotice::parse(&mut r).map(PceMsg::Ipc);
        }
        let kind = PceKind::try_from(tag)?;
        if kind != PceKind::DnsMapping {
            return PceFlowMsg::parse(&mut r, kind).map(PceMsg::Flow);
        }
        let pce_d = r.addr()?;
        let mapping = MapRecord::parse(&mut r)?;
        let dns_len = r.u16()?;
        let dns_reply = Box::new(Packet::decode(r.bytes(usize::from(dns_len))?)?);
        Ok(PceMsg::DnsMapping {
            pce_d,
            mapping,
            dns_reply,
        })
    }
}

/// The two-one-way-tunnels mapping tuple of step 7b:
/// `(E_S, E_D, RLOC_S, RLOC_D)`. Pushed by `PCE_S` to **all** ITRs of the
/// domain, so TE moves never strand a flow on an ITR without state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowMapping {
    /// Source end-host EID.
    pub source_eid: Ipv4Address,
    /// Destination end-host EID.
    pub dest_eid: Ipv4Address,
    /// The local RLOC to stamp as the encapsulation *source* — chosen by
    /// `PCE_S` for the *reverse* traffic (inbound TE, step 1). May differ
    /// from the forwarding ITR's own address.
    pub rloc_s: Ipv4Address,
    /// The remote RLOC to tunnel to (outbound selection by `PCE_D`).
    pub rloc_d: Ipv4Address,
    /// Mapping lifetime in minutes.
    pub ttl_minutes: u16,
}

impl FlowMapping {
    /// Wire length of a flow-mapping body.
    pub const WIRE_LEN: usize = 4 * 4 + 2;
}

/// A push (install) or withdraw message from the PCE to an ITR, or a
/// reverse-mapping sync among ETRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PceFlowMsg {
    /// Install, withdraw, or reverse-sync.
    pub kind: PceKind,
    /// The flow mapping tuple.
    pub mapping: FlowMapping,
}

impl PceFlowMsg {
    /// Wire length of any flow message (fixed-size body).
    pub const WIRE_LEN: usize = 4 + FlowMapping::WIRE_LEN;

    fn emit(&self, w: &mut Writer) {
        let m = &self.mapping;
        emit_header(w, self.kind.into());
        w.addr(m.source_eid)
            .addr(m.dest_eid)
            .addr(m.rloc_s)
            .addr(m.rloc_d);
        w.u16(m.ttl_minutes);
    }

    /// Read the flow mapping that follows a header of kind `kind`.
    fn parse(r: &mut Reader, kind: PceKind) -> WireResult<Self> {
        let mapping = FlowMapping {
            source_eid: r.addr()?,
            dest_eid: r.addr()?,
            rloc_s: r.addr()?,
            rloc_d: r.addr()?,
            ttl_minutes: r.u16()?,
        };
        Ok(Self { kind, mapping })
    }
}

/// The DNS→PCE IPC notice (the dashed line of Fig. 1, step 1): "end-host
/// `client` just asked me to resolve `qname`". Lets the PCE associate the
/// eventual mapping with the requesting EID and precompute the ingress
/// RLOC for the reverse direction.
///
/// Layout: `u16 magic | u8 version | u8 0xF0 | u32 client | u8 len | qname bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpcQueryNotice {
    /// The requesting end-host (`E_S`).
    pub client: Ipv4Address,
    /// The queried name.
    pub qname: Name,
}

/// The header tag byte identifying an [`IpcQueryNotice`] (vs the
/// [`PceKind`] codes of the other PCE messages).
pub const IPC_TAG: u8 = 0xF0;

impl IpcQueryNotice {
    /// Exact wire length, computed. A name's presentation form is at
    /// most 253 bytes ([`crate::dnswire::MAX_NAME_LEN`]), so its length
    /// fits the one-byte field.
    pub fn wire_len(&self) -> usize {
        9 + self.qname.as_str().len()
    }

    fn emit(&self, w: &mut Writer) {
        let name = self.qname.as_str().as_bytes();
        emit_header(w, IPC_TAG);
        w.addr(self.client).u8(name.len() as u8).bytes(name);
    }

    /// Read the notice that follows its header.
    fn parse(r: &mut Reader) -> WireResult<Self> {
        let client = r.addr()?;
        let len = r.u8()?;
        let text =
            core::str::from_utf8(r.bytes(usize::from(len))?).map_err(|_| WireError::Malformed)?;
        Ok(Self {
            client,
            qname: Name::parse_str(text)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnswire::Message;
    use crate::lispctl::Locator;
    use crate::ports;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address::new(a, b, c, d)
    }

    fn sample_mapping() -> MapRecord {
        MapRecord {
            eid_prefix: addr(101, 2, 2, 2),
            prefix_len: 32,
            ttl_minutes: 60,
            locators: vec![
                Locator::new(addr(12, 0, 0, 1), 1, 60),
                Locator::new(addr(13, 0, 0, 1), 1, 40),
            ],
        }
    }

    fn dns_mapping(pce_d: Ipv4Address) -> PceMsg {
        let query = Message::query_a(7, Name::parse_str("host.d.example").unwrap(), false);
        PceMsg::DnsMapping {
            pce_d,
            mapping: sample_mapping(),
            dns_reply: Box::new(Packet::dns(
                addr(12, 0, 0, 53),
                ports::DNS,
                addr(10, 0, 0, 53),
                32853,
                Message::response_to(&query),
            )),
        }
    }

    #[test]
    fn dns_mapping_roundtrip() {
        let msg = dns_mapping(addr(12, 0, 0, 200));
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_len());
        assert_eq!(bytes[3], u8::from(PceKind::DnsMapping));
        assert_eq!(PceMsg::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn flow_msg_roundtrip_all_kinds() {
        let mapping = FlowMapping {
            source_eid: addr(100, 1, 1, 1),
            dest_eid: addr(101, 2, 2, 2),
            rloc_s: addr(11, 0, 0, 1),
            rloc_d: addr(12, 0, 0, 1),
            ttl_minutes: 30,
        };
        for kind in [
            PceKind::MappingPush,
            PceKind::MappingWithdraw,
            PceKind::ReverseSync,
        ] {
            let msg = PceMsg::Flow(PceFlowMsg { kind, mapping });
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), PceFlowMsg::WIRE_LEN);
            assert_eq!(bytes[3], u8::from(kind));
            assert_eq!(PceMsg::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn independent_one_way_tunnels_representable() {
        // The paper's key TE point: RLOC_S may differ from the ITR's own
        // address; the tuple must carry both directions independently.
        let mapping = FlowMapping {
            source_eid: addr(100, 1, 1, 1),
            dest_eid: addr(101, 2, 2, 2),
            rloc_s: addr(11, 0, 0, 1), // ingress via provider B
            rloc_d: addr(13, 0, 0, 1), // egress toward provider Y
            ttl_minutes: 30,
        };
        let msg = PceMsg::Flow(PceFlowMsg {
            kind: PceKind::MappingPush,
            mapping,
        });
        let PceMsg::Flow(parsed) = PceMsg::from_bytes(&msg.to_bytes()).unwrap() else {
            panic!("not a flow message");
        };
        assert_ne!(parsed.mapping.rloc_s, parsed.mapping.rloc_d);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = dns_mapping(addr(1, 1, 1, 1)).to_bytes();
        bytes[0] = 0;
        assert_eq!(
            PceMsg::from_bytes(&bytes).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn bad_version_rejected() {
        let msg = PceMsg::Flow(PceFlowMsg {
            kind: PceKind::ReverseSync,
            mapping: FlowMapping {
                source_eid: addr(1, 1, 1, 1),
                dest_eid: addr(2, 2, 2, 2),
                rloc_s: addr(3, 3, 3, 3),
                rloc_d: addr(4, 4, 4, 4),
                ttl_minutes: 1,
            },
        });
        let mut bytes = msg.to_bytes();
        bytes[2] = 99;
        assert_eq!(
            PceMsg::from_bytes(&bytes).unwrap_err(),
            WireError::BadVersion
        );
    }

    #[test]
    fn kind_mismatch_rejected() {
        // A kind byte that is neither a `PceKind` nor the IPC tag.
        let mut bytes = dns_mapping(addr(1, 1, 1, 1)).to_bytes();
        for kind in [0, 5, 0xef, 0xf1] {
            bytes[3] = kind;
            assert_eq!(
                PceMsg::from_bytes(&bytes).unwrap_err(),
                WireError::UnknownType
            );
        }
    }

    #[test]
    fn ipc_notice_roundtrip() {
        for qname in ["host.d.example", ""] {
            let n = PceMsg::Ipc(IpcQueryNotice {
                client: addr(100, 0, 0, 5),
                qname: Name::parse_str(qname).unwrap(),
            });
            let bytes = n.to_bytes();
            assert_eq!(bytes.len(), n.wire_len());
            assert_eq!(bytes[3], IPC_TAG);
            assert_eq!(PceMsg::from_bytes(&bytes).unwrap(), n);
        }
    }

    #[test]
    fn ipc_notice_truncation_rejected() {
        let n = PceMsg::Ipc(IpcQueryNotice {
            client: addr(100, 0, 0, 5),
            qname: Name::parse_str("host.d.example").unwrap(),
        });
        let b = n.to_bytes();
        assert_eq!(
            PceMsg::from_bytes(&b[..b.len() - 3]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn truncated_dns_reply_rejected() {
        let bytes = dns_mapping(addr(1, 1, 1, 1)).to_bytes();
        assert_eq!(
            PceMsg::from_bytes(&bytes[..bytes.len() - 4]).unwrap_err(),
            WireError::Truncated
        );
    }
}
