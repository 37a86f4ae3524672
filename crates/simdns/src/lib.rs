//! `simdns` — a DNS substrate running on `netsim`.
//!
//! Implements the pieces the paper's control plane rides on:
//!
//! * [`zone`] — zone data: A records and delegations (NS + glue).
//! * [`auth`] — an authoritative server [`netsim::Node`] answering real
//!   RFC 1035 wire-format queries: authoritative answers, referrals with
//!   glue, NXDOMAIN.
//! * [`resolver`] — a recursive resolver node (`DNS_S` in the paper's
//!   Fig. 1) performing *iterative* resolution from root hints, with a
//!   positive cache and an NS/glue cache, retransmission timers, and a
//!   client-facing RD interface.
//!
//! The world builder (`pcelisp::spec`) assembles the root / TLD /
//! authoritative topology from these parts.
//!
//! The resolver purposely mirrors the paper's timing model: resolving a
//! cold name costs one round trip per delegation level, which is exactly
//! the `T_DNS` that the PCE control plane hides its mapping resolution in.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod auth;
pub mod resolver;
pub mod zone;

pub use auth::AuthServer;
pub use resolver::{Resolver, ResolverConfig};
pub use zone::{Zone, ZoneStore};
