//! LISP data-plane encapsulation header (draft-farinacci-lisp-08 §5).
//!
//! On the wire a LISP-encapsulated packet looks like:
//!
//! ```text
//! outer IPv4 (RLOC -> RLOC) | UDP (src ephemeral, dst 4341) | LISP | inner IPv4 (EID -> EID) | ...
//! ```
//!
//! The 8-byte LISP header carries a nonce for echo-nonce reachability
//! testing and locator-status-bits advertising the up/down state of the
//! sending site's locators:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |N|L|E|V|I|flags|            Nonce (24 bits)                    |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                 Instance ID / Locator Status Bits             |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```

use crate::error::WireResult;
use crate::wire::{Reader, Writer};

/// Length of the LISP data header.
pub const HEADER_LEN: usize = 8;

/// The N bit: nonce present.
const N_BIT: u32 = 0x8000_0000;
/// The L bit: locator-status-bits field enabled.
const L_BIT: u32 = 0x4000_0000;

/// High-level representation of a LISP data header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LispRepr {
    /// 24-bit nonce (present iff `nonce_present`).
    pub nonce: u32,
    /// Whether the N bit is set.
    pub nonce_present: bool,
    /// Locator-status bits (the low bits flag which of the sender's
    /// locators are up).
    pub lsb: u32,
    /// Whether the L bit is set.
    pub lsb_enabled: bool,
}

impl LispRepr {
    /// A default header with a given nonce and all-ones LSB for `n` locators.
    pub fn with_nonce(nonce: u32, locator_count: u32) -> Self {
        let lsb = if locator_count >= 32 {
            u32::MAX
        } else {
            (1u32 << locator_count) - 1
        };
        Self {
            nonce: nonce & 0x00ff_ffff,
            nonce_present: true,
            lsb,
            lsb_enabled: true,
        }
    }

    /// Write the header (the E bit and the reserved flags stay clear;
    /// only the low 24 bits of `nonce` are sent).
    pub(crate) fn emit(&self, w: &mut Writer) {
        let mut first = self.nonce & 0x00ff_ffff;
        if self.nonce_present {
            first |= N_BIT;
        }
        if self.lsb_enabled {
            first |= L_BIT;
        }
        w.u32(first).u32(self.lsb);
    }

    /// Read the header.
    pub(crate) fn parse(r: &mut Reader) -> WireResult<Self> {
        let first = r.u32()?;
        Ok(Self {
            nonce: first & 0x00ff_ffff,
            nonce_present: first & N_BIT != 0,
            lsb: r.u32()?,
            lsb_enabled: first & L_BIT != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;

    fn roundtrip_of(repr: &LispRepr) -> (Vec<u8>, LispRepr) {
        let bytes = Writer::collect(|w| repr.emit(w));
        let parsed = LispRepr::parse(&mut Reader::new(&bytes)).unwrap();
        (bytes, parsed)
    }

    #[test]
    fn roundtrip() {
        let repr = LispRepr::with_nonce(0x00abcdef, 2);
        let (bytes, parsed) = roundtrip_of(&repr);
        assert_eq!(bytes, [0xc0, 0xab, 0xcd, 0xef, 0, 0, 0, 3]);
        assert_eq!(parsed, repr);
    }

    #[test]
    fn nonce_is_24_bits() {
        let repr = LispRepr::with_nonce(0xffff_ffff, 1);
        assert_eq!(repr.nonce, 0x00ff_ffff);
        let wide = LispRepr {
            nonce: 0xffff_ffff,
            ..repr
        };
        let (bytes, parsed) = roundtrip_of(&wide);
        assert_eq!(bytes[0], 0xc0);
        assert_eq!(parsed, repr);
    }

    #[test]
    fn lsb_mask_for_counts() {
        assert_eq!(LispRepr::with_nonce(0, 0).lsb, 0);
        assert_eq!(LispRepr::with_nonce(0, 1).lsb, 1);
        assert_eq!(LispRepr::with_nonce(0, 2).lsb, 3);
        assert_eq!(LispRepr::with_nonce(0, 32).lsb, u32::MAX);
        assert_eq!(LispRepr::with_nonce(0, 40).lsb, u32::MAX);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            LispRepr::parse(&mut Reader::new(&[0u8; 7])).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn flags_independent() {
        for (nonce_present, lsb_enabled) in [(true, false), (false, true), (false, false)] {
            let repr = LispRepr {
                nonce: 42,
                nonce_present,
                lsb: 7,
                lsb_enabled,
            };
            assert_eq!(roundtrip_of(&repr).1, repr);
        }
    }
}
