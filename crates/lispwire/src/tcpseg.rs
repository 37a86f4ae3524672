//! A minimal TCP segment (RFC 793 subset).
//!
//! The reproduction only needs enough of TCP to measure
//! connection-establishment latency (the paper's §1 equations are stated in
//! terms of the three-way handshake) and to carry simple data segments for
//! traffic-engineering experiments. Options, window scaling, and
//! retransmission machinery are out of scope; the segment format is still
//! real wire bytes with a verified checksum.

use crate::checksum::Accumulator;
use crate::error::{WireError, WireResult};
use crate::ipv4::PROTO_TCP;
use crate::packet::Ipv4Header;
use crate::wire::{Reader, Writer};

/// Length of the (option-less) TCP header.
pub const HEADER_LEN: usize = 20;

/// TCP control flags (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: no more data from sender.
    pub const FIN: Self = Self(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: Self = Self(0x02);
    /// RST: reset the connection.
    pub const RST: Self = Self(0x04);
    /// PSH: push function.
    pub const PSH: Self = Self(0x08);
    /// ACK: acknowledgment field significant.
    pub const ACK: Self = Self(0x10);

    /// The empty flag set.
    pub const fn empty() -> Self {
        Self(0)
    }

    /// True if `other`'s bits are all set in `self`.
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

/// High-level representation of a TCP segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK flag set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
}

impl TcpRepr {
    /// Write the option-less segment (window 65535) carrying `payload`
    /// and fill in its checksum over the IPv4 pseudo-header of `ip`.
    pub(crate) fn emit(&self, w: &mut Writer, ip: &Ipv4Header, payload: &[u8]) {
        let start = w.len();
        w.u16(self.src_port)
            .u16(self.dst_port)
            .u32(self.seq)
            .u32(self.ack);
        w.u8(5 << 4).u8(self.flags.0).u16(65535).u16(0).u16(0);
        w.bytes(payload);
        let c = segment_sum(ip, w.since(start));
        w.patch_u16(start + 16, c);
    }

    /// Read a segment carried in `ip`, verifying its checksum: the
    /// header and the payload.
    pub(crate) fn parse<'a>(bytes: &'a [u8], ip: &Ipv4Header) -> WireResult<(Self, &'a [u8])> {
        let mut r = Reader::new(bytes);
        let (src_port, dst_port, seq, ack) = (r.u16()?, r.u16()?, r.u32()?, r.u32()?);
        let [offset, flags] = r.array()?;
        let _window_checksum_urgent = r.bytes(6)?;
        let header_len = usize::from(offset >> 4) * 4;
        let payload = bytes
            .get(header_len..)
            .filter(|_| header_len >= HEADER_LEN)
            .ok_or(WireError::Malformed)?;
        if segment_sum(ip, bytes) != 0 {
            return Err(WireError::BadChecksum);
        }
        let flags = TcpFlags(flags & 0x3f);
        let repr = Self {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
        };
        Ok((repr, payload))
    }
}

/// The Internet checksum of `segment` under the IPv4 pseudo-header of
/// `ip`: the checksum to write, or zero over a segment that verifies.
fn segment_sum(ip: &Ipv4Header, segment: &[u8]) -> u16 {
    let mut acc = Accumulator::new();
    acc.add_bytes(&ip.src.0);
    acc.add_bytes(&ip.dst.0);
    acc.add_u16(u16::from(PROTO_TCP));
    acc.add_u16(segment.len() as u16);
    acc.add_bytes(segment);
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Address;

    const SRC: Ipv4Address = Ipv4Address::new(100, 0, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(101, 0, 0, 1);

    fn syn() -> TcpRepr {
        TcpRepr {
            src_port: 49152,
            dst_port: 80,
            seq: 1000,
            ack: 0,
            flags: TcpFlags::SYN,
        }
    }

    fn segment(repr: &TcpRepr, ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        Writer::collect(|w| repr.emit(w, ip, payload))
    }

    #[test]
    fn roundtrip_syn() {
        let ip = Ipv4Header::new(SRC, DST);
        let bytes = segment(&syn(), &ip, &[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        let (parsed, payload) = TcpRepr::parse(&bytes, &ip).unwrap();
        assert_eq!(parsed, syn());
        assert!(payload.is_empty());
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(!parsed.flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn synack_flags() {
        let repr = TcpRepr {
            flags: TcpFlags::SYN | TcpFlags::ACK,
            ack: 1001,
            ..syn()
        };
        let ip = Ipv4Header::new(DST, SRC);
        let (parsed, _) = TcpRepr::parse(&segment(&repr, &ip, &[]), &ip).unwrap();
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(parsed.flags.contains(TcpFlags::ACK));
        assert_eq!(parsed.ack, 1001);
    }

    #[test]
    fn payload_carried_and_checksummed() {
        let repr = TcpRepr {
            flags: TcpFlags::ACK | TcpFlags::PSH,
            ..syn()
        };
        let ip = Ipv4Header::new(SRC, DST);
        let mut bytes = segment(&repr, &ip, b"data!");
        assert_eq!(TcpRepr::parse(&bytes, &ip).unwrap(), (repr, &b"data!"[..]));
        bytes[HEADER_LEN + 2] ^= 1;
        assert_eq!(
            TcpRepr::parse(&bytes, &ip).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn truncated_rejected() {
        let ip = Ipv4Header::new(SRC, DST);
        assert_eq!(
            TcpRepr::parse(&[0u8; 8], &ip).unwrap_err(),
            WireError::Truncated
        );
    }
}
