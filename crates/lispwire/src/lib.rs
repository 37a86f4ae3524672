//! `lispwire` — typed wire formats for the PCE-LISP reproduction.
//!
//! Every packet that crosses a simulated link is a typed [`packet::Packet`]
//! value carried directly through the `netsim` event queue: byte accounting
//! is computed from paired `wire_len` functions, and the real wire image is
//! only materialized lazily ([`packet::Packet::encode`]) for traces, golden
//! hashing and equivalence tests (DESIGN.md §9). Encoding is the one
//! direction the simulation uses: every layer writes into a single buffer
//! through one private big-endian writer, which back-patches length and
//! checksum fields once a layer's body is in place. The decoders
//! ([`packet::Packet::decode`] and the `from_bytes` functions) read
//! through a matching bounds-checked reader; they exist as the test oracle
//! of the encoder.
//!
//! Formats provided:
//!
//! * [`ipv4`] — IPv4 addresses and the header (RFC 791 subset: no options).
//! * [`udp`] — UDP datagrams (RFC 768).
//! * [`tcpseg`] — a minimal TCP segment (handshake flags + seq numbers),
//!   enough to measure connection-establishment latency.
//! * [`lisp`] — the LISP data-plane encapsulation header
//!   (draft-farinacci-lisp-08 §5).
//! * [`lispctl`] — LISP control messages: Map-Request and Map-Reply with
//!   locator records (priority/weight), draft-farinacci-lisp-08 §6.
//! * [`dnswire`] — DNS messages (RFC 1035 subset: header, uncompressed
//!   QNAME labels, A/NS questions and records).
//! * [`pcewire`] — the paper's PCE messages, among them the step-6
//!   encapsulation: a UDP payload on the special port `P` carrying the
//!   original DNS reply plus an EID-to-RLOC mapping record (Fig. 1).
//! * [`packet`] — the typed in-simulator packet ([`Packet`]) implementing
//!   [`netsim::Payload`]: one variant per protocol stack, structural LISP
//!   encapsulation, computed wire lengths.
//!
//! The crate is `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checksum;
pub mod dnswire;
pub mod error;
pub mod ipv4;
pub mod lisp;
pub mod lispctl;
pub mod packet;
pub mod pcewire;
pub mod tcpseg;
pub mod udp;
mod wire;

pub use error::{WireError, WireResult};
pub use ipv4::Ipv4Address;
pub use packet::{ConsMsg, CtlMsg, Ipv4Header, Packet, PceMsg, UdpPorts};

/// Well-known simulated port numbers used throughout the reproduction.
pub mod ports {
    /// DNS (RFC 1035).
    pub const DNS: u16 = 53;
    /// LISP data-plane encapsulation (draft-farinacci-lisp-08).
    pub const LISP_DATA: u16 = 4341;
    /// LISP control-plane (Map-Request / Map-Reply).
    pub const LISP_CONTROL: u16 = 4342;
    /// The paper's special port `P` listened on by the source-domain PCE
    /// (Fig. 1 step 7): PCE-encapsulated DNS replies carrying mappings.
    pub const PCE_MAP: u16 = 44342;
    /// Reverse-mapping multicast among ETRs (paper §2, after step 8).
    pub const ETR_SYNC: u16 = 44343;
    /// The IPC channel between a domain's DNS server and its PCE (the
    /// dashed line of Fig. 1, step 1).
    pub const PCE_IPC: u16 = 44344;
    /// LISP-CONS overlay traffic among CARs/CDRs (draft-meyer-lisp-cons).
    pub const CONS: u16 = 4343;
}
