//! `ircte` — Intelligent Route Control and Traffic Engineering.
//!
//! The paper's PCEs run "an online IRC engine … in background, so the
//! mapping is always known aforehand" (step 6) and compute ingress RLOCs
//! "based on TE constraints … inherently the same used today by
//! Intelligent Route Control techniques" (step 1). This crate provides
//! that engine:
//!
//! * [`policy`] — deterministic selection policies: a fixed primary
//!   (lowest cost, every provider costing the same) and load balance.
//! * [`objective`] — imbalance metrics over provider utilisations.
//! * [`engine`] — the [`engine::IrcEngine`] tying them together: choose
//!   ingress RLOCs per flow, track allocated load, and move flows off a
//!   failed provider.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod objective;
pub mod policy;

pub use engine::{IrcEngine, Provider, ProviderId};
pub use objective::Imbalance;
pub use policy::SelectionPolicy;
