//! The typed in-simulator packet representation (DESIGN.md §9).
//!
//! Every packet crossing a simulated link used to be a `Vec<u8>` built
//! by the codecs in this crate and re-parsed at every hop. [`Packet`]
//! replaces that with a typed value the engine moves through its event
//! queue directly: one variant per protocol stack the reproduction
//! uses, each carrying the outer [`Ipv4Header`], its UDP ports where
//! applicable, and the *typed* message body. Byte accounting is
//! **computed** ([`Packet::wire_len`], paired with every codec's
//! emitter) and the wire image is only materialized **lazily**
//! ([`Packet::encode`]) for traces, golden hashing and the equivalence
//! property tests — never on the simulation hot path.
//!
//! `encode` writes every layer into one buffer: each header is written
//! with placeholder length and checksum fields, its body follows, and
//! the fields are back-patched. [`Packet::decode`] is `encode`'s test
//! oracle and nothing else: it reads real wire bytes back into a typed
//! packet, verifying every checksum on the way.

use crate::dnswire::Message;
use crate::error::{WireError, WireResult};
use crate::ipv4::{self, Ipv4Address, PROTO_TCP, PROTO_UDP};
use crate::lisp::LispRepr;
use crate::lispctl::{DbPush, MapRecord, MapReply, MapRequest, RlocProbe};
use crate::lispctl::{TYPE_DB_PUSH, TYPE_MAP_REPLY, TYPE_MAP_REQUEST};
use crate::lispctl::{TYPE_RLOC_PROBE, TYPE_RLOC_PROBE_ACK};
use crate::pcewire::{IpcQueryNotice, PceFlowMsg};
use crate::ports;
use crate::tcpseg::TcpRepr;
use crate::udp;
use crate::wire::{Reader, Writer};

/// The typed outer IPv4 header of a [`Packet`].
///
/// Checksums are not stored: they are an artefact of the wire image,
/// recomputed by [`Packet::encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Time to live (decremented by routers; see `inet::stack::forward_hop`).
    pub ttl: u8,
}

impl Ipv4Header {
    /// Default TTL used by simulated hosts (matches smoltcp's default).
    pub const DEFAULT_TTL: u8 = 64;

    /// A header with the default TTL.
    pub fn new(src: Ipv4Address, dst: Ipv4Address) -> Self {
        Self {
            src,
            dst,
            ttl: Self::DEFAULT_TTL,
        }
    }

    /// Builder-style TTL override.
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }
}

/// Source and destination UDP ports of a UDP-based [`Packet`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpPorts {
    /// Source port.
    pub src: u16,
    /// Destination port.
    pub dst: u16,
}

impl UdpPorts {
    /// Construct from `(src, dst)`.
    pub fn new(src: u16, dst: u16) -> Self {
        Self { src, dst }
    }

    /// Both ports equal (the convention of every control protocol here).
    pub fn both(port: u16) -> Self {
        Self {
            src: port,
            dst: port,
        }
    }
}

/// A typed LISP control message (UDP port 4342, or the CONS overlay
/// port 4343 for [`CtlMsg::Cons`] wrappers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlMsg {
    /// A Map-Request.
    Request(MapRequest),
    /// A Map-Reply.
    Reply(MapReply),
    /// A NERD-style database push chunk.
    DbPush(DbPush),
    /// An RLOC reachability probe or acknowledgement.
    Probe(RlocProbe),
    /// A CONS overlay wrapper retracing/record-routing a request/reply.
    Cons(ConsMsg),
}

impl CtlMsg {
    /// Exact length of [`CtlMsg::to_bytes`], computed.
    pub fn wire_len(&self) -> usize {
        match self {
            CtlMsg::Request(_) => MapRequest::WIRE_LEN,
            CtlMsg::Reply(r) => r.wire_len(),
            CtlMsg::DbPush(p) => p.wire_len(),
            CtlMsg::Probe(_) => RlocProbe::WIRE_LEN,
            CtlMsg::Cons(c) => c.wire_len(),
        }
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        match self {
            CtlMsg::Request(r) => r.emit(w),
            CtlMsg::Reply(r) => r.emit(w),
            CtlMsg::DbPush(p) => p.emit(w),
            CtlMsg::Probe(p) => p.emit(w),
            CtlMsg::Cons(c) => c.emit(w),
        }
    }

    /// Serialize to owned bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        Writer::collect(|w| self.emit(w))
    }

    /// Parse, classifying by the type byte.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(buf);
        Ok(match r.u8()? {
            TYPE_MAP_REQUEST => CtlMsg::Request(MapRequest::parse(&mut r)?),
            TYPE_MAP_REPLY => CtlMsg::Reply(MapReply::parse(&mut r)?),
            TYPE_DB_PUSH => CtlMsg::DbPush(DbPush::parse(&mut r)?),
            TYPE_RLOC_PROBE => CtlMsg::Probe(RlocProbe::parse(&mut r, false)?),
            TYPE_RLOC_PROBE_ACK => CtlMsg::Probe(RlocProbe::parse(&mut r, true)?),
            CONS_MAGIC => CtlMsg::Cons(ConsMsg::parse(&mut r)?),
            _ => return Err(WireError::UnknownType),
        })
    }
}

/// Magic first byte of a CONS overlay wrapper.
pub const CONS_MAGIC: u8 = 0xC5;

/// The LISP-CONS overlay wrapper (draft-meyer-lisp-cons, emulated):
/// carries a Map-Request up/down the CAR/CDR hierarchy with an explicit
/// record-route so the reply can retrace the path.
///
/// Layout: `u8 0xC5 | u8 is_reply | u32 orig_itr | u8 n | n×u32 via |
/// u16 inner_len | inner (a Map-Request or Map-Reply)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsMsg {
    /// True for replies retracing the path, false for requests going up.
    pub is_reply: bool,
    /// The original requesting ITR (final reply target).
    pub orig_itr: Ipv4Address,
    /// Record-route: addresses to retrace, most recent last.
    pub via: Vec<Ipv4Address>,
    /// The encapsulated control message (Map-Request or Map-Reply).
    pub inner: Box<CtlMsg>,
}

impl ConsMsg {
    /// Exact wire length, computed.
    pub fn wire_len(&self) -> usize {
        9 + self.via.len() * 4 + self.inner.wire_len()
    }

    pub(crate) fn emit(&self, w: &mut Writer) {
        w.u8(CONS_MAGIC)
            .u8(u8::from(self.is_reply))
            .addr(self.orig_itr);
        w.u8(self.via.len() as u8);
        for v in &self.via {
            w.addr(*v);
        }
        w.len_prefixed(|w| self.inner.emit(w));
    }

    /// Read the wrapper that follows the magic byte.
    fn parse(r: &mut Reader) -> WireResult<Self> {
        let (is_reply, orig_itr) = (r.u8()? != 0, r.addr()?);
        let via = (0..r.u8()?).map(|_| r.addr()).collect::<WireResult<_>>()?;
        let inner_len = r.u16()?;
        let inner = Box::new(CtlMsg::from_bytes(r.bytes(usize::from(inner_len))?)?);
        Ok(Self {
            is_reply,
            orig_itr,
            via,
            inner,
        })
    }
}

/// A typed PCE control-plane message (ports `PCE_MAP`, `ETR_SYNC`,
/// `PCE_IPC`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PceMsg {
    /// Step 6: the encapsulated DNS reply plus the forward mapping. The
    /// original DNS-reply *packet* is carried as a typed value and
    /// forwarded verbatim in step 7a.
    DnsMapping {
        /// Address of the originating `PCE_D`.
        pce_d: Ipv4Address,
        /// The precomputed mapping for the destination EID.
        mapping: MapRecord,
        /// The original DNS reply packet, forwarded unmodified (7a).
        dns_reply: Box<Packet>,
    },
    /// A push / withdraw / reverse-sync flow message.
    Flow(PceFlowMsg),
    /// The DNS→PCE IPC notice (Fig. 1 step 1).
    Ipc(IpcQueryNotice),
}

/// A typed simulated packet: IPv4 header plus one protocol stack.
///
/// Variants mirror what the reproduction actually puts on the wire;
/// `wire_len` is exact byte accounting against `encode`, pinned by the
/// `prop_packet` equivalence tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// An opaque-payload UDP datagram (application data).
    Udp {
        /// Outer IPv4 header.
        ip: Ipv4Header,
        /// UDP ports.
        ports: UdpPorts,
        /// Application payload bytes.
        payload: Vec<u8>,
    },
    /// A TCP segment.
    Tcp {
        /// Outer IPv4 header.
        ip: Ipv4Header,
        /// Segment header.
        seg: TcpRepr,
        /// Segment payload bytes.
        payload: Vec<u8>,
    },
    /// A LISP-encapsulated data packet (RLOC → RLOC tunnel carrying an
    /// inner EID → EID packet) — the encapsulation is *structural*: the
    /// inner packet is a boxed [`Packet`], never serialized in-sim.
    LispData {
        /// Outer IPv4 header (RLOC addresses).
        ip: Ipv4Header,
        /// Outer UDP ports (4341/4341).
        ports: UdpPorts,
        /// The LISP data header.
        lisp: LispRepr,
        /// The encapsulated packet.
        inner: Box<Packet>,
    },
    /// A LISP control message.
    LispCtl {
        /// Outer IPv4 header.
        ip: Ipv4Header,
        /// UDP ports (4342/4342, or 4343/4343 for CONS wrappers).
        ports: UdpPorts,
        /// The control message.
        msg: CtlMsg,
    },
    /// A PCE control-plane message.
    Pce {
        /// Outer IPv4 header.
        ip: Ipv4Header,
        /// UDP ports (`PCE_MAP`, `ETR_SYNC` or `PCE_IPC`).
        ports: UdpPorts,
        /// The PCE message.
        msg: PceMsg,
    },
    /// A DNS message.
    Dns {
        /// Outer IPv4 header.
        ip: Ipv4Header,
        /// UDP ports (port 53 on the server side).
        ports: UdpPorts,
        /// The DNS message — boxed: at 104 bytes inline it alone set
        /// the size of every queued packet (DESIGN.md §9).
        msg: Box<Message>,
    },
}

impl Packet {
    /// An opaque UDP data packet with the default TTL.
    pub fn udp(
        src: Ipv4Address,
        src_port: u16,
        dst: Ipv4Address,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Self {
        Packet::Udp {
            ip: Ipv4Header::new(src, dst),
            ports: UdpPorts::new(src_port, dst_port),
            payload,
        }
    }

    /// A TCP segment with the default TTL.
    pub fn tcp(src: Ipv4Address, dst: Ipv4Address, seg: TcpRepr, payload: Vec<u8>) -> Self {
        Packet::Tcp {
            ip: Ipv4Header::new(src, dst),
            seg,
            payload,
        }
    }

    /// A DNS message with the default TTL.
    pub fn dns(
        src: Ipv4Address,
        src_port: u16,
        dst: Ipv4Address,
        dst_port: u16,
        msg: Message,
    ) -> Self {
        Packet::Dns {
            ip: Ipv4Header::new(src, dst),
            ports: UdpPorts::new(src_port, dst_port),
            msg: Box::new(msg),
        }
    }

    /// A LISP control message with the default TTL.
    pub fn ctl(
        src: Ipv4Address,
        src_port: u16,
        dst: Ipv4Address,
        dst_port: u16,
        msg: CtlMsg,
    ) -> Self {
        Packet::LispCtl {
            ip: Ipv4Header::new(src, dst),
            ports: UdpPorts::new(src_port, dst_port),
            msg,
        }
    }

    /// A PCE message with the default TTL.
    pub fn pce(
        src: Ipv4Address,
        src_port: u16,
        dst: Ipv4Address,
        dst_port: u16,
        msg: PceMsg,
    ) -> Self {
        Packet::Pce {
            ip: Ipv4Header::new(src, dst),
            ports: UdpPorts::new(src_port, dst_port),
            msg,
        }
    }

    /// LISP-encapsulate `inner` between `outer_src` and `outer_dst`
    /// (ports 4341/4341, TTL 64 — the xTR tunnel convention).
    pub fn lisp_data(
        outer_src: Ipv4Address,
        outer_dst: Ipv4Address,
        lisp: LispRepr,
        inner: Packet,
    ) -> Self {
        Packet::LispData {
            ip: Ipv4Header::new(outer_src, outer_dst),
            ports: UdpPorts::both(ports::LISP_DATA),
            lisp,
            inner: Box::new(inner),
        }
    }

    /// The outer IPv4 header.
    pub fn ip(&self) -> &Ipv4Header {
        match self {
            Packet::Udp { ip, .. }
            | Packet::Tcp { ip, .. }
            | Packet::LispData { ip, .. }
            | Packet::LispCtl { ip, .. }
            | Packet::Pce { ip, .. }
            | Packet::Dns { ip, .. } => ip,
        }
    }

    /// Mutable access to the outer IPv4 header.
    pub fn ip_mut(&mut self) -> &mut Ipv4Header {
        match self {
            Packet::Udp { ip, .. }
            | Packet::Tcp { ip, .. }
            | Packet::LispData { ip, .. }
            | Packet::LispCtl { ip, .. }
            | Packet::Pce { ip, .. }
            | Packet::Dns { ip, .. } => ip,
        }
    }

    /// The outer source address.
    pub fn src(&self) -> Ipv4Address {
        self.ip().src
    }

    /// The outer destination address.
    pub fn dst(&self) -> Ipv4Address {
        self.ip().dst
    }

    /// The UDP ports, for every UDP-based variant (`None` for TCP).
    pub fn udp_ports(&self) -> Option<UdpPorts> {
        match self {
            Packet::Udp { ports, .. }
            | Packet::LispData { ports, .. }
            | Packet::LispCtl { ports, .. }
            | Packet::Pce { ports, .. }
            | Packet::Dns { ports, .. } => Some(*ports),
            Packet::Tcp { .. } => None,
        }
    }

    /// Exact number of bytes this packet occupies on the wire — equal
    /// to `encode().len()` at all times (pinned by property tests), but
    /// computed without materializing anything. A loop over the LISP
    /// encapsulation rather than a recursion, so it inlines whole: the
    /// engine's send path pays a few adds for a data packet, tunnelled
    /// or not.
    #[inline]
    pub fn wire_len(&self) -> usize {
        const IP_UDP: usize = crate::ipv4::HEADER_LEN + crate::udp::HEADER_LEN;
        let mut len = 0;
        let mut pkt = self;
        loop {
            match pkt {
                Packet::LispData { inner, .. } => {
                    len += IP_UDP + crate::lisp::HEADER_LEN;
                    pkt = inner;
                }
                Packet::Udp { payload, .. } => return len + IP_UDP + payload.len(),
                Packet::Tcp { payload, .. } => {
                    let headers = crate::ipv4::HEADER_LEN + crate::tcpseg::HEADER_LEN;
                    return len + headers + payload.len();
                }
                Packet::LispCtl { msg, .. } => return len + IP_UDP + msg.wire_len(),
                Packet::Pce { msg, .. } => return len + IP_UDP + msg.wire_len(),
                Packet::Dns { msg, .. } => return len + IP_UDP + msg.wire_len(),
            }
        }
    }

    /// Materialize the exact wire image: real headers, real checksums,
    /// uncompressed names. Lazy: used by traces, golden hashing, and
    /// equivalence tests only.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.wire_len());
        self.emit(&mut w);
        w.into_vec()
    }

    /// Append the wire image.
    pub(crate) fn emit(&self, w: &mut Writer) {
        let ip = self.ip();
        match self {
            Packet::Udp { ports, payload, .. } => emit_udp_ip(w, ip, *ports, |w| {
                w.bytes(payload);
            }),
            Packet::Tcp { seg, payload, .. } => {
                ipv4::emit(w, ip, PROTO_TCP, |w| seg.emit(w, ip, payload));
            }
            Packet::LispData {
                ports, lisp, inner, ..
            } => emit_udp_ip(w, ip, *ports, |w| {
                lisp.emit(w);
                inner.emit(w);
            }),
            Packet::LispCtl { ports, msg, .. } => emit_udp_ip(w, ip, *ports, |w| msg.emit(w)),
            Packet::Pce { ports, msg, .. } => emit_udp_ip(w, ip, *ports, |w| msg.emit(w)),
            Packet::Dns { ports, msg, .. } => emit_udp_ip(w, ip, *ports, |w| msg.emit(w)),
        }
    }

    /// Decode a typed packet from real wire bytes, verifying the
    /// checksum of every layer and classifying UDP payloads by the
    /// well-known ports. Inverse of [`Packet::encode`]; `encode`'s test
    /// oracle, never called by the simulation.
    pub fn decode(bytes: &[u8]) -> WireResult<Packet> {
        let (ip, protocol, body) = ipv4::parse(bytes)?;
        match protocol {
            PROTO_TCP => {
                let (seg, payload) = TcpRepr::parse(body, &ip)?;
                let payload = payload.to_vec();
                return Ok(Packet::Tcp { ip, seg, payload });
            }
            PROTO_UDP => {}
            _ => return Err(WireError::UnknownType),
        }
        let (ports, body) = udp::parse(body, &ip)?;
        let is = |p: u16| ports.src == p || ports.dst == p;
        Ok(if is(ports::LISP_DATA) {
            let mut r = Reader::new(body);
            let lisp = LispRepr::parse(&mut r)?;
            let inner = Box::new(Packet::decode(r.rest())?);
            Packet::LispData {
                ip,
                ports,
                lisp,
                inner,
            }
        } else if is(ports::LISP_CONTROL) || is(ports::CONS) {
            let msg = CtlMsg::from_bytes(body)?;
            Packet::LispCtl { ip, ports, msg }
        } else if is(ports::PCE_MAP) || is(ports::ETR_SYNC) || is(ports::PCE_IPC) {
            let msg = PceMsg::from_bytes(body)?;
            Packet::Pce { ip, ports, msg }
        } else if is(ports::DNS) {
            let msg = Box::new(Message::from_bytes(body)?);
            Packet::Dns { ip, ports, msg }
        } else {
            let payload = body.to_vec();
            Packet::Udp { ip, ports, payload }
        })
    }
}

/// Write `IPv4(UDP(body))` for a header/ports pair.
fn emit_udp_ip(w: &mut Writer, ip: &Ipv4Header, ports: UdpPorts, body: impl FnOnce(&mut Writer)) {
    ipv4::emit(w, ip, PROTO_UDP, |w| udp::emit(w, ip, ports, body));
}

impl netsim::payload::Payload for Packet {
    #[inline]
    fn wire_len(&self) -> usize {
        Packet::wire_len(self)
    }

    fn encode(&self) -> Vec<u8> {
        Packet::encode(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lispctl::Locator;

    fn a(x: u8, y: u8, z: u8, w: u8) -> Ipv4Address {
        Ipv4Address::new(x, y, z, w)
    }

    fn sample_request() -> MapRequest {
        MapRequest {
            nonce: 0xfeed_beef,
            source_eid: a(100, 0, 0, 5),
            target_eid: a(101, 0, 0, 7),
            itr_rloc: a(10, 0, 0, 1),
            hop_count: 16,
        }
    }

    #[test]
    fn udp_roundtrip_through_legacy_decoder() {
        let p = Packet::udp(a(100, 0, 0, 5), 7000, a(101, 0, 0, 7), 7001, vec![9; 32]);
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_len());
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn lisp_data_is_structural_encapsulation() {
        let inner = Packet::udp(a(100, 0, 0, 5), 7000, a(101, 0, 0, 7), 7001, vec![1; 16]);
        let inner_len = inner.wire_len();
        let p = Packet::lisp_data(
            a(10, 0, 0, 1),
            a(12, 0, 0, 1),
            LispRepr::with_nonce(0x42, 2),
            inner,
        );
        assert_eq!(p.wire_len(), 36 + inner_len);
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_len());
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn ctl_and_cons_roundtrip() {
        let req = CtlMsg::Request(sample_request());
        let cons = CtlMsg::Cons(ConsMsg {
            is_reply: false,
            orig_itr: a(10, 0, 0, 1),
            via: vec![a(9, 0, 0, 1), a(9, 0, 0, 2)],
            inner: Box::new(req.clone()),
        });
        for (msg, port) in [(req, ports::LISP_CONTROL), (cons, ports::CONS)] {
            let p = Packet::ctl(a(10, 0, 0, 1), port, a(8, 0, 0, 1), port, msg);
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.wire_len());
            assert_eq!(Packet::decode(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn pce_dns_mapping_carries_inner_packet() {
        let reply = Packet::dns(
            a(12, 0, 0, 53),
            ports::DNS,
            a(10, 0, 0, 53),
            32853,
            Message::query_a(
                7,
                crate::dnswire::Name::parse_str("host.d.example").unwrap(),
                false,
            ),
        );
        let msg = PceMsg::DnsMapping {
            pce_d: a(12, 0, 0, 200),
            mapping: MapRecord {
                eid_prefix: a(101, 0, 0, 7),
                prefix_len: 32,
                ttl_minutes: 60,
                locators: vec![Locator::new(a(12, 0, 0, 1), 1, 100)],
            },
            dns_reply: Box::new(reply),
        };
        let p = Packet::pce(
            a(12, 0, 0, 200),
            ports::PCE_MAP,
            a(10, 0, 0, 53),
            ports::PCE_MAP,
            msg,
        );
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_len());
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn packet_fits_the_queue_slot_budget() {
        // The event slab moves a whole `Packet` several times per hop;
        // at 152 bytes that was 30 % of `dataplane_steady` (DESIGN.md §9).
        assert!(std::mem::size_of::<Packet>() <= 64);
    }

    #[test]
    fn non_ip_rejected_by_decoder() {
        assert!(Packet::decode(&[0u8; 6]).is_err());
    }
}
