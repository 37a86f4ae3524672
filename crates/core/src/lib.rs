//! `pcelisp` — a PCE-based control plane for LISP.
//!
//! Reproduction of *“Advantages of a PCE-based Control Plane for LISP”*
//! (Castro et al., ACM CoNEXT 2008). The crate provides:
//!
//! * [`pce`] — the paper's contribution: the PCE node that sits on the
//!   data path of a domain's DNS server, transparently observes the
//!   iterative resolution (steps 2–5), encapsulates the final DNS reply
//!   together with the precomputed EID-to-RLOC mapping on the special
//!   port `P` (step 6), and — on the requesting side — forwards the
//!   answer to the DNS server while pushing the
//!   `(E_S, E_D, RLOC_S, RLOC_D)` flow mapping to **all** local ITRs
//!   (steps 7a/7b), with ingress selection by an online IRC engine
//!   (step 1).
//! * [`hosts`] — end-host nodes: a traffic client that resolves a name,
//!   opens a TCP connection or blasts CBR UDP, and records every timing
//!   the paper's equations mention; and a server peer.
//! * [`spec`] — the declarative scenario layer: [`spec::TopologySpec`]
//!   / [`spec::ScenarioSpec`] describe sites (EID prefix, providers
//!   with per-link OWD/bandwidth/loss, host population), DNS depth,
//!   mapping-system placement, control plane and workload;
//!   `build(seed)` returns a [`spec::World`] whose handles are keyed by
//!   site/provider name. [`spec::ScenarioSpec::fig1`] reproduces the
//!   paper's Fig. 1 world exactly; [`spec::ScenarioSpec::multi_site`]
//!   generates N-site scale scenarios; [`spec::DynamicsSpec`] layers
//!   deterministic timed dynamics on top — link failures, locator
//!   failures with their control-plane aftermath, and mapping
//!   re-registrations (DESIGN.md §7).
//! * [`scenario`] — the control-plane menu ([`scenario::CpKind`]), the
//!   site-internal [`scenario::FlowRouter`], and the figure's
//!   well-known addresses.
//! * [`workload`] — deterministic Poisson/Zipf flow workload generation.
//! * [`adversary`] — scripted attacker nodes for the graceful-degradation
//!   study (E12): Map-Request floods, cache poisoning, prefix
//!   overclaiming, all replay-deterministic (DESIGN.md §10).
//! * [`experiments`] — the E1–E13 / A1–A2 harnesses of DESIGN.md behind
//!   the [`experiments::Experiment`] trait: each returns an
//!   [`experiments::ExpReport`] whose sections render as tables and
//!   serialize to JSON, and [`experiments::registry`] drives them all.
//!   A grid experiment is data ([`experiments::Grid`]); every cell runs
//!   its world through [`experiments::run`].
//!
//! ```no_run
//! use pcelisp::prelude::*;
//!
//! // Build the Fig. 1 world with the PCE control plane and run one flow.
//! let mut world = ScenarioSpec::fig1(CpKind::Pce).build(1);
//! world.start_flow(0);
//! world.sim.run_until(Ns::from_secs(5));
//!
//! // Or a 32-destination-site scale world with Zipf popularity.
//! let mut big = ScenarioSpec::multi_site(CpKind::Pce, 32, 4).build(1);
//! big.schedule_all_flows();
//! big.sim.run_until(big.last_flow_start() + Ns::from_secs(30));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod experiments;
pub mod hosts;
pub mod pce;
pub mod plane;
pub mod scenario;
pub mod spec;
pub mod workload;

/// Convenient re-exports for examples and benches.
pub mod prelude {
    pub use crate::adversary::{AttackNode, ScanRng};
    pub use crate::experiments::{self, Cell, ExpReport, Experiment, Section};
    pub use crate::hosts::{FlowMode, FlowSpec, ServerHost, TrafficHost};
    pub use crate::pce::{Pce, PceConfig};
    pub use crate::plane::MapSystem;
    pub use crate::scenario::{CpKind, FlowRouter};
    pub use crate::spec::{
        AttackerSpec, DefenseSpec, DynEvent, DynEventKind, DynamicsSpec, ProviderSpec,
        ScenarioSpec, SelectionPolicy, SiteRole, SiteSpec, SiteWorld, TopologySpec, Workload,
        World,
    };
    pub use crate::workload::{PoissonArrivals, ZipfPicker};
    pub use inet::{Prefix, Router};
    pub use lispdp::{CacheSpec, CpMode, DefenseCfg, EvictionPolicy, MissPolicy, Xtr};
    pub use lispwire::Ipv4Address;
    pub use netsim::{LinkCfg, Ns, Sim};
}
