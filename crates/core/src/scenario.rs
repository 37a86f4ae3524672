//! Scenario vocabulary shared by every world: the control-plane menu
//! ([`CpKind`]), the site-internal [`FlowRouter`], the paper's
//! well-known addresses ([`addrs`]) and the classic Fig. 1 flow-script
//! helper ([`flow_script`]).
//!
//! World *construction* lives in [`crate::spec`]: describe a topology
//! with [`crate::spec::ScenarioSpec`] (the [`crate::spec::ScenarioSpec::fig1`]
//! preset reproduces the paper's figure exactly) and `build(seed)` it
//! into a [`crate::spec::World`].

use inet::{LpmTrie, Prefix};
use lispwire::{Ipv4Address, Packet};
use netsim::{Ctx, LazyCounter, Node, PortId};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Which control plane runs in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpKind {
    /// No LISP at all: EIDs are globally routable (today's Internet, the
    /// `T_DNS + 2·OWD + OWD` baseline of §1).
    NoLisp,
    /// Vanilla LISP, Map-Resolver pull, packets dropped on miss.
    LispDrop,
    /// Vanilla LISP, packets queued on miss.
    LispQueue,
    /// Vanilla LISP, data carried over the control plane on miss.
    LispDataCp,
    /// LISP+ALT with an overlay chain of the given length.
    Alt {
        /// Number of overlay routers between ITR and ETR side.
        hops: usize,
    },
    /// LISP-CONS with the given number of interior CDR levels.
    Cons {
        /// Interior depth (0 = the CARs share one root CDR).
        cdr_depth: usize,
    },
    /// NERD pushed database.
    Nerd,
    /// The paper's PCE-based control plane.
    Pce,
}

impl CpKind {
    /// Report label. Borrowed for the fixed variants so sweep row loops
    /// don't allocate a fresh `String` per call.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            CpKind::NoLisp => Cow::Borrowed("no-lisp"),
            CpKind::LispDrop => Cow::Borrowed("lisp-drop"),
            CpKind::LispQueue => Cow::Borrowed("lisp-queue"),
            CpKind::LispDataCp => Cow::Borrowed("lisp-data-cp"),
            CpKind::Alt { hops } => Cow::Owned(format!("lisp-alt-{hops}")),
            CpKind::Cons { cdr_depth } => Cow::Owned(format!("lisp-cons-{cdr_depth}")),
            CpKind::Nerd => Cow::Borrowed("nerd"),
            CpKind::Pce => Cow::Borrowed("pce"),
        }
    }

    /// All comparison variants used by the experiment sweeps.
    pub fn all() -> Vec<CpKind> {
        vec![
            CpKind::NoLisp,
            CpKind::LispDrop,
            CpKind::LispQueue,
            CpKind::LispDataCp,
            CpKind::Alt { hops: 4 },
            CpKind::Cons { cdr_depth: 1 },
            CpKind::Nerd,
            CpKind::Pce,
        ]
    }
}

/// A router with per-flow `(src, dst)` port overrides on top of LPM —
/// the site-internal routing knob that picks the egress border router
/// ("PCE_S can … move part of its internal traffic").
pub struct FlowRouter {
    routes: LpmTrie<PortId>,
    overrides: BTreeMap<(Ipv4Address, Ipv4Address), PortId>,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub dropped: u64,
    ctr_dropped: LazyCounter,
}

impl FlowRouter {
    /// An empty flow router.
    pub fn new() -> Self {
        Self {
            routes: LpmTrie::new(),
            overrides: BTreeMap::new(),
            forwarded: 0,
            dropped: 0,
            ctr_dropped: LazyCounter::new(),
        }
    }

    /// Install a prefix route.
    pub fn add_route(&mut self, prefix: Prefix, port: PortId) -> &mut Self {
        self.routes.insert(prefix, port);
        self
    }

    /// Install the default route.
    pub fn set_default_route(&mut self, port: PortId) -> &mut Self {
        self.add_route(Prefix::DEFAULT, port)
    }

    /// Pin a flow to a port (TE override).
    pub fn pin_flow(&mut self, src: Ipv4Address, dst: Ipv4Address, port: PortId) {
        self.overrides.insert((src, dst), port);
    }

    /// Install (or replace) the route for `prefix` as the site IGP
    /// re-converging onto a surviving egress after a border failure
    /// (DESIGN.md §7): traced, unlike [`FlowRouter::add_route`]. The
    /// dynamics subsystem calls it at a set time through
    /// `Sim::schedule_call`. Use [`Prefix::DEFAULT`] to move the
    /// default route.
    pub fn reroute(&mut self, ctx: &mut Ctx<'_, Packet>, prefix: Prefix, port: PortId) {
        self.routes.insert(prefix, port);
        ctx.trace(format_args!("igp reroute: {prefix} now via port {port}"));
    }
}

impl Default for FlowRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl Node<Packet> for FlowRouter {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        // Site-internal hop: no TTL work (modelled as L2/IGP forwarding).
        let (src, dst) = (pkt.src(), pkt.dst());
        let port = self
            .overrides
            .get(&(src, dst))
            .copied()
            .or_else(|| self.routes.lookup_value(dst).copied());
        match port {
            Some(p) => {
                self.forwarded += 1;
                ctx.send(p, pkt);
            }
            None => {
                self.dropped += 1;
                self.ctr_dropped.add(ctx, "flowrouter.dropped", 1);
            }
        }
    }
}

/// Well-known addresses of the Fig. 1 world.
pub mod addrs {
    use lispwire::Ipv4Address;

    /// `E_S`, the source end-host.
    pub const HOST_S: Ipv4Address = Ipv4Address::new(100, 0, 0, 5);
    /// Base for `E_D` server EIDs (`host-i.d.example` = base + 10 + i).
    pub const HOST_D_BASE: Ipv4Address = Ipv4Address::new(101, 0, 0, 7);
    /// Border router on provider A.
    pub const XTR_A: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    /// Border router on provider B.
    pub const XTR_B: Ipv4Address = Ipv4Address::new(11, 0, 0, 1);
    /// Border router on provider X.
    pub const XTR_X: Ipv4Address = Ipv4Address::new(12, 0, 0, 1);
    /// Border router on provider Y.
    pub const XTR_Y: Ipv4Address = Ipv4Address::new(13, 0, 0, 1);
    /// `DNS_S`, the domain-S recursive resolver.
    pub const DNS_S: Ipv4Address = Ipv4Address::new(10, 0, 0, 53);
    /// `DNS_D`, the domain-D authoritative server.
    pub const DNS_D: Ipv4Address = Ipv4Address::new(12, 0, 0, 53);
    /// `PCE_S`.
    pub const PCE_S: Ipv4Address = Ipv4Address::new(10, 0, 0, 200);
    /// `PCE_D`.
    pub const PCE_D: Ipv4Address = Ipv4Address::new(12, 0, 0, 200);
    /// DNS root server.
    pub const ROOT: Ipv4Address = Ipv4Address::new(8, 0, 0, 53);
    /// `example` TLD server.
    pub const TLD: Ipv4Address = Ipv4Address::new(9, 0, 0, 53);
    /// Map-resolver (vanilla pull).
    pub const MAP_RESOLVER: Ipv4Address = Ipv4Address::new(8, 0, 0, 10);
    /// Standby map-resolver twin (replicated worlds only).
    pub const MAP_RESOLVER_2: Ipv4Address = Ipv4Address::new(8, 0, 0, 11);
    /// NERD authority.
    pub const NERD: Ipv4Address = Ipv4Address::new(8, 0, 0, 20);
    /// Standby NERD authority twin (replicated worlds only).
    pub const NERD_2: Ipv4Address = Ipv4Address::new(8, 0, 0, 21);
    /// Standby ALT entry gateway (replicated worlds only).
    pub const ALT_GATEWAY_2: Ipv4Address = Ipv4Address::new(9, 1, 0, 254);
}

/// Build a flow script against the Fig. 1 zone: `n` flows starting at
/// the given times, one destination name each (round-robin over
/// `dest_count` names in `d.example`).
pub fn flow_script(
    starts: &[netsim::Ns],
    dest_count: usize,
    mode: crate::hosts::FlowMode,
) -> Vec<crate::hosts::FlowSpec> {
    use lispwire::dnswire::Name;
    starts
        .iter()
        .enumerate()
        .map(|(i, &start)| crate::hosts::FlowSpec {
            start,
            qname: Name::parse_str(&format!("host-{}.d.example", i % dest_count.max(1)))
                .expect("valid"),
            mode,
        })
        .collect()
}
