//! `inet` — the internet substrate on top of `netsim`.
//!
//! Provides what the LISP and DNS layers stand on:
//!
//! * [`addr`] — IPv4 prefixes with containment tests.
//! * [`lpm`] — a longest-prefix-match table (a path-compressed binary
//!   trie in one arena) used by every forwarding and mapping table and
//!   by the LISP map-cache.
//! * [`stack`] — the typed-packet factory ([`IpStack`]) every endpoint
//!   node uses to construct `lispwire::Packet` values, plus the per-hop
//!   forwarding helper.
//! * [`router`] — a transit IPv4 router [`netsim::Node`]: decrements the
//!   TTL of typed packets and forwards by longest-prefix match — no
//!   per-hop parsing.
//! * [`tcp`] — a minimal TCP connection state machine (3-way handshake +
//!   counted data segments), enough to measure the paper's
//!   connection-establishment latencies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod addr;
pub mod lpm;
pub mod router;
pub mod stack;
pub mod tcp;

pub use addr::{Prefix, PrefixSet};
pub use lpm::LpmTrie;
pub use router::Router;
pub use stack::IpStack;
pub use tcp::{TcpEvent, TcpMachine, TcpState};
