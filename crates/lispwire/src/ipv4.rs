//! IPv4 addresses, and the option-less IPv4 header (RFC 791) every
//! [`Packet`](crate::Packet) is framed in.

use crate::checksum;
use crate::error::{WireError, WireResult};
use crate::packet::Ipv4Header;
use crate::wire::{Reader, Writer};
use core::fmt;

/// An IPv4 address.
///
/// Ordered as its host-order `u32`: the same order as the octets', in
/// one integer compare instead of a slice compare (addresses key the
/// per-packet `BTreeMap`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ord for Ipv4Address {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.to_u32().cmp(&other.to_u32())
    }
}

impl PartialOrd for Ipv4Address {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ipv4Address {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Self = Self([0; 4]);

    /// Construct from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self([a, b, c, d])
    }

    /// Construct from a host-order `u32`.
    pub const fn from_u32(v: u32) -> Self {
        Self(v.to_be_bytes())
    }

    /// Convert to a host-order `u32` (useful for prefix arithmetic).
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl From<u32> for Ipv4Address {
    fn from(v: u32) -> Self {
        Self::from_u32(v)
    }
}

impl From<[u8; 4]> for Ipv4Address {
    fn from(v: [u8; 4]) -> Self {
        Self(v)
    }
}

/// Length of the (option-less) IPv4 header.
pub const HEADER_LEN: usize = 20;

/// The protocol number of TCP.
pub(crate) const PROTO_TCP: u8 = 6;
/// The protocol number of UDP.
pub(crate) const PROTO_UDP: u8 = 17;

/// Write `ip` (version 4, no options, DF set) and then `body`, and fill
/// in the total length and the header checksum.
pub(crate) fn emit(w: &mut Writer, ip: &Ipv4Header, protocol: u8, body: impl FnOnce(&mut Writer)) {
    let start = w.len();
    w.u16(0x4500).u16(0).u16(0).u16(0x4000);
    w.u8(ip.ttl).u8(protocol).u16(0).addr(ip.src).addr(ip.dst);
    body(w);
    w.patch_len(start + 2, start);
    let c = checksum::checksum(&w.since(start)[..HEADER_LEN]);
    w.patch_u16(start + 10, c);
}

/// Read an IPv4 datagram, verifying its header checksum: the header,
/// the protocol number and the payload the total-length field covers.
pub(crate) fn parse(bytes: &[u8]) -> WireResult<(Ipv4Header, u8, &[u8])> {
    let mut r = Reader::new(bytes);
    let (ver_ihl, _dscp, total_len) = (r.u8()?, r.u8()?, r.u16()?);
    let _ident_frag = r.u32()?;
    let (ttl, protocol, _checksum) = (r.u8()?, r.u8()?, r.u16()?);
    let (src, dst) = (r.addr()?, r.addr()?);
    let header_len = usize::from(ver_ihl & 0x0f) * 4;
    if header_len < HEADER_LEN {
        return Err(WireError::Malformed);
    }
    let datagram = bytes
        .get(..usize::from(total_len))
        .filter(|d| d.len() >= header_len)
        .ok_or(WireError::BadLength)?;
    if ver_ihl >> 4 != 4 {
        return Err(WireError::BadVersion);
    }
    if !checksum::verify(&datagram[..header_len]) {
        return Err(WireError::BadChecksum);
    }
    let ip = Ipv4Header { src, dst, ttl };
    Ok((ip, protocol, &datagram[header_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> (Ipv4Header, Vec<u8>) {
        let ip = Ipv4Header::new(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(12, 0, 0, 9));
        let bytes = Writer::collect(|w| {
            emit(w, &ip, PROTO_UDP, |w| {
                w.bytes(&[1, 2, 3, 4]);
            })
        });
        (ip, bytes)
    }

    #[test]
    fn emit_parse_roundtrip() {
        let (ip, bytes) = sample();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        assert!(checksum::verify(&bytes[..HEADER_LEN]));
        assert_eq!(parse(&bytes), Ok((ip, PROTO_UDP, &[1u8, 2, 3, 4][..])));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(parse(&[0x45; 10]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_total_length_rejected() {
        let (_, mut bytes) = sample();
        bytes[3] = 100; // longer than the buffer
        assert_eq!(parse(&bytes).unwrap_err(), WireError::BadLength);
        bytes[3] = 19; // shorter than the header
        assert_eq!(parse(&bytes).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let (_, mut bytes) = sample();
        bytes[12] ^= 0xff; // flip a source-address byte
        assert_eq!(parse(&bytes).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn ttl_decrement_and_refresh() {
        // A forwarding hop's TTL decrement is a fresh emit: the
        // checksum follows the header it covers.
        let (ip, bytes) = sample();
        let hop = ip.with_ttl(ip.ttl - 1);
        let fwd = Writer::collect(|w| {
            emit(w, &hop, PROTO_UDP, |w| {
                w.bytes(&[1, 2, 3, 4]);
            })
        });
        assert_eq!(fwd[8], 63);
        assert_ne!(fwd[10..12], bytes[10..12]);
        assert_eq!(parse(&fwd).unwrap().0.ttl, 63);
    }

    #[test]
    fn address_display_and_conversions() {
        let a = Ipv4Address::new(10, 1, 2, 3);
        assert_eq!(a.to_string(), "10.1.2.3");
        assert_eq!(Ipv4Address::from_u32(a.to_u32()), a);
        assert_eq!(Ipv4Address::from(a.0), a);
        assert_eq!(Ipv4Address::UNSPECIFIED.to_u32(), 0);
    }

    #[test]
    fn protocol_codes_roundtrip() {
        let (_, bytes) = sample();
        assert_eq!(bytes[9], 17);
        for proto in [PROTO_TCP, PROTO_UDP, 1, 99] {
            let ip = Ipv4Header::new(Ipv4Address::new(1, 1, 1, 1), Ipv4Address::new(2, 2, 2, 2));
            let bytes = Writer::collect(|w| emit(w, &ip, proto, |_| {}));
            assert_eq!(parse(&bytes).unwrap().1, proto);
        }
    }

    /// An address drawn from `0..3` per octet, so that equal and
    /// one-octet-apart pairs are common.
    fn near_addr() -> impl Strategy<Value = Ipv4Address> {
        (0u8..3, 0u8..3, 0u8..3, 0u8..3).prop_map(|(a, b, c, d)| Ipv4Address::new(a, b, c, d))
    }

    proptest! {
        #[test]
        fn order_is_the_octet_order(a in any::<u32>(), b in any::<u32>()) {
            let (a, b) = (Ipv4Address::from_u32(a), Ipv4Address::from_u32(b));
            prop_assert_eq!(a.cmp(&b), a.0.cmp(&b.0));
            prop_assert_eq!((a < b, a <= b), (a.0 < b.0, a.0 <= b.0));
            prop_assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
        }

        #[test]
        fn order_is_the_octet_order_on_near_pairs(a in near_addr(), b in near_addr()) {
            prop_assert_eq!(a.cmp(&b), a.0.cmp(&b.0));
            prop_assert_eq!((a < b, a <= b), (a.0 < b.0, a.0 <= b.0));
        }
    }
}
