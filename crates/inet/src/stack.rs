//! Typed packet construction helpers shared by every endpoint.
//!
//! [`IpStack`] owns a host's (or router interface's) IPv4 address and
//! stamps it — plus the configured TTL — onto outgoing typed
//! [`Packet`]s. Since the typed-packet refactor (DESIGN.md §9) nothing
//! serializes per hop: nodes construct and match `Packet` values, and
//! the wire image exists only lazily (`Packet::encode`) for traces and
//! equivalence tests.

use lispwire::dnswire::Message;
use lispwire::packet::{CtlMsg, Packet, PceMsg};
use lispwire::tcpseg::TcpRepr;
use lispwire::{Ipv4Address, Ipv4Header};

/// A host-side packet factory bound to a local address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpStack {
    /// The local IPv4 address stamped on outgoing packets.
    pub addr: Ipv4Address,
    /// TTL for new packets.
    pub ttl: u8,
}

impl IpStack {
    /// A stack with the default TTL.
    pub fn new(addr: Ipv4Address) -> Self {
        Self {
            addr,
            ttl: Ipv4Header::DEFAULT_TTL,
        }
    }

    fn stamp(&self, mut pkt: Packet) -> Packet {
        pkt.ip_mut().ttl = self.ttl;
        pkt
    }

    /// An opaque-payload UDP packet from this stack's address.
    pub fn udp(&self, src_port: u16, dst: Ipv4Address, dst_port: u16, payload: Vec<u8>) -> Packet {
        self.stamp(Packet::udp(self.addr, src_port, dst, dst_port, payload))
    }

    /// A DNS message packet from this stack's address.
    pub fn dns(&self, src_port: u16, dst: Ipv4Address, dst_port: u16, msg: Message) -> Packet {
        self.stamp(Packet::dns(self.addr, src_port, dst, dst_port, msg))
    }

    /// A LISP control message packet from this stack's address.
    pub fn ctl(&self, src_port: u16, dst: Ipv4Address, dst_port: u16, msg: CtlMsg) -> Packet {
        self.stamp(Packet::ctl(self.addr, src_port, dst, dst_port, msg))
    }

    /// A PCE control-plane message packet from this stack's address.
    pub fn pce(&self, src_port: u16, dst: Ipv4Address, dst_port: u16, msg: PceMsg) -> Packet {
        self.stamp(Packet::pce(self.addr, src_port, dst, dst_port, msg))
    }

    /// A TCP segment packet from this stack's address.
    pub fn tcp(&self, dst: Ipv4Address, seg: &TcpRepr, payload: Vec<u8>) -> Packet {
        self.stamp(Packet::tcp(self.addr, dst, *seg, payload))
    }
}

/// Rewrite a packet for one forwarding hop: decrement the TTL. Returns
/// `false` when the TTL expires (packet must be dropped).
pub fn forward_hop(pkt: &mut Packet) -> bool {
    let ip = pkt.ip_mut();
    ip.ttl = ip.ttl.saturating_sub(1);
    ip.ttl != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lispwire::tcpseg::TcpFlags;

    const A: Ipv4Address = Ipv4Address::new(100, 0, 0, 1);
    const B: Ipv4Address = Ipv4Address::new(101, 0, 0, 1);

    #[test]
    fn udp_builder_stamps_addr_and_ttl() {
        let stack = IpStack::new(A);
        let pkt = stack.udp(1234, B, 53, b"query".to_vec());
        assert_eq!(pkt.src(), A);
        assert_eq!(pkt.dst(), B);
        assert_eq!(pkt.ip().ttl, Ipv4Header::DEFAULT_TTL);
        match &pkt {
            Packet::Udp { ports, payload, .. } => {
                assert_eq!((ports.src, ports.dst), (1234, 53));
                assert_eq!(payload, b"query");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The wire image matches the legacy byte path exactly.
        assert_eq!(pkt.encode().len(), pkt.wire_len());
        assert_eq!(pkt.wire_len(), 20 + 8 + 5);
    }

    #[test]
    fn tcp_builder_produces_segment() {
        let stack = IpStack::new(A);
        let seg = TcpRepr {
            src_port: 40000,
            dst_port: 80,
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
        };
        let pkt = stack.tcp(B, &seg, vec![]);
        match &pkt {
            Packet::Tcp {
                seg: s, payload, ..
            } => {
                assert_eq!(*s, seg);
                assert!(payload.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pkt.wire_len(), 40);
    }

    #[test]
    fn forward_hop_decrements() {
        let stack = IpStack::new(A);
        let mut pkt = stack.udp(1, B, 2, b"x".to_vec());
        assert!(forward_hop(&mut pkt));
        assert_eq!(pkt.ip().ttl, Ipv4Header::DEFAULT_TTL - 1);
        // Payload still valid after the hop (encode round-trips).
        assert_eq!(Packet::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn forward_hop_expires_ttl() {
        let mut stack = IpStack::new(A);
        stack.ttl = 1;
        let mut pkt = stack.udp(1, B, 2, b"x".to_vec());
        assert!(!forward_hop(&mut pkt));
    }
}
