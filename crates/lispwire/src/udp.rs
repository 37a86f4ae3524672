//! The UDP header (RFC 768) of every UDP-based
//! [`Packet`](crate::Packet) variant.

use crate::checksum;
use crate::error::{WireError, WireResult};
use crate::packet::{Ipv4Header, UdpPorts};
use crate::wire::{Reader, Writer};

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

/// Write the UDP header and then `body`, and fill in the length and
/// the checksum over the IPv4 pseudo-header of `ip`.
pub(crate) fn emit(
    w: &mut Writer,
    ip: &Ipv4Header,
    ports: UdpPorts,
    body: impl FnOnce(&mut Writer),
) {
    let start = w.len();
    w.u16(ports.src).u16(ports.dst).u16(0).u16(0);
    body(w);
    w.patch_len(start + 4, start);
    // The checksum covers what the length field claims: for a datagram
    // past 65,535 octets, only the octets below the wrapped length.
    let datagram = w.since(start);
    let claimed = &datagram[..usize::from(datagram.len() as u16)];
    let c = checksum::udp_ipv4(ip.src.0, ip.dst.0, claimed);
    w.patch_u16(start + 6, c);
}

/// Read a UDP datagram carried in `ip`, verifying its checksum (a zero
/// checksum field means "not computed"): the ports and the payload the
/// length field covers.
pub(crate) fn parse<'a>(bytes: &'a [u8], ip: &Ipv4Header) -> WireResult<(UdpPorts, &'a [u8])> {
    let mut r = Reader::new(bytes);
    let ports = UdpPorts::new(r.u16()?, r.u16()?);
    let (len, check) = (usize::from(r.u16()?), r.u16()?);
    let datagram = bytes
        .get(..len)
        .filter(|d| d.len() >= HEADER_LEN)
        .ok_or(WireError::BadLength)?;
    // Over a correct datagram the ones-complement sum is 0xffff;
    // `udp_ipv4` complements that to 0 and, by RFC 768's rule for a
    // zero checksum, reports it as 0xffff.
    if check != 0 && checksum::udp_ipv4(ip.src.0, ip.dst.0, datagram) != 0xffff {
        return Err(WireError::BadChecksum);
    }
    Ok((ports, &datagram[HEADER_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Address;

    fn ip() -> Ipv4Header {
        Ipv4Header::new(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(11, 0, 0, 2))
    }

    fn datagram(payload: &[u8]) -> Vec<u8> {
        Writer::collect(|w| {
            emit(w, &ip(), UdpPorts::new(5353, 53), |w| {
                w.bytes(payload);
            });
        })
    }

    #[test]
    fn roundtrip() {
        let bytes = datagram(b"hello");
        assert_eq!(bytes.len(), HEADER_LEN + 5);
        let (ports, payload) = parse(&bytes, &ip()).unwrap();
        assert_eq!(ports, UdpPorts::new(5353, 53));
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = datagram(b"hello");
        bytes[HEADER_LEN] ^= 0x55;
        assert_eq!(parse(&bytes, &ip()).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn wrong_pseudo_header_detected() {
        let bytes = datagram(b"hello");
        let mut other = ip();
        other.src = Ipv4Address::new(99, 0, 0, 1);
        assert_eq!(parse(&bytes, &other).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut bytes = datagram(b"x");
        bytes[6] = 0;
        bytes[7] = 0;
        assert!(parse(&bytes, &ip()).is_ok());
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(parse(&[0u8; 4], &ip()).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_length_field_rejected() {
        let mut bytes = datagram(b"hello");
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert_eq!(parse(&bytes, &ip()).unwrap_err(), WireError::BadLength);
    }
}
