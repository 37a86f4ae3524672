//! Declarative scenario construction: describe a world, then build it.
//!
//! The paper's Fig. 1 topology used to be hand-welded into a builder
//! with fixed-arity handles (two sites, four providers, `[u64; 4]`
//! byte counters). This module replaces that with three declarative
//! layers:
//!
//! * [`TopologySpec`] — *where things are*: a list of [`SiteSpec`]s
//!   (EID prefix, K provider border routers with per-link OWD /
//!   bandwidth / drop probability, host population, client or server
//!   role), the DNS-hierarchy depth, and mapping-system placement.
//! * [`ScenarioSpec`] — *what runs on it*: the control plane
//!   ([`CpKind`]), the workload ([`Workload`], reusing
//!   [`PoissonArrivals`]/[`ZipfPicker`]), mapping TTLs and granularity,
//!   and the PCE ablation knobs.
//! * [`ScenarioSpec::build`] — `spec + seed → `[`World`]: the running
//!   simulation plus handles keyed by **site and provider name**
//!   instead of fixed struct fields, so the same experiment code works
//!   for 2 sites or 200. `build` is a driver over construction layers
//!   (spec checks, DNS zone data, site nodes, the DNS side, the border,
//!   DNS infrastructure, registrations and the mapping plane, attackers,
//!   dynamics) that fill one [`SiteWorld`] table; it names no
//!   [`CpKind`]: what differs between planes lives in
//!   [`crate::plane`], the attacker roles compile in
//!   [`crate::adversary`].
//!
//! [`ScenarioSpec::fig1`] is a preset that reproduces the paper's
//! Fig. 1 world *exactly* (same node names, ordering, addressing and
//! therefore byte-identical experiment tables — pinned by
//! `tests/golden_compat.rs`). [`ScenarioSpec::multi_site`] generates
//! N-destination-site worlds for the scale experiments (E9).

use crate::adversary::{add_attackers, overclaim};
use crate::hosts::{FlowMode, FlowSpec, ServerHost, TrafficHost};
use crate::pce::Pce;
use crate::plane::{
    add_direct_uplinks, attach_site_dns, attach_to_core, attach_to_site, MapSystem,
};
use crate::scenario::{addrs, CpKind, FlowRouter};
use crate::workload::{PoissonArrivals, ZipfPicker};
use inet::{Prefix, PrefixSet, Router};
pub use ircte::SelectionPolicy;
use lispdp::{CacheSpec, CpMode, DefenseCfg, MissPolicy, RlocProbeCfg, Xtr, XtrConfig};
use lispwire::dnswire::Name;
use lispwire::{Ipv4Address, Packet};
use mapsys::api::{MappingDb, SiteEntry};
use mapsys::GuardCfg;
use netsim::{LinkCfg, Node, NodeId, Ns, PortId, Sim};
use simdns::zone::{Zone, ZoneStore};
use simdns::{AuthServer, Resolver, ResolverConfig};
use std::fmt::{self, Write as _};
use std::iter::once;
use std::sync::Arc;

/// What a site does in the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteRole {
    /// Runs a [`TrafficHost`] plus a recursive resolver: originates the
    /// workload's flows.
    Client,
    /// Runs a [`ServerHost`] plus an authoritative DNS server for the
    /// site's zone: terminates flows.
    Server,
}

/// One provider (border-router) attachment of a site.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Provider name; the border router is named `xTR-{name}`.
    pub name: String,
    /// The border router's RLOC (WAN-side address).
    pub rloc: Ipv4Address,
    /// One-way delay of the provider↔core link.
    pub owd: Ns,
    /// Provider link bandwidth (bps).
    pub bandwidth_bps: u64,
    /// Random drop probability on the provider link.
    pub drop_prob: f64,
    /// RLOC-space prefix announced for this provider at the core.
    pub core_route: Prefix,
    /// Site-internal RLOC subnet (DNS server, PCE live here).
    pub internal_prefix: Prefix,
}

impl ProviderSpec {
    /// The provider↔core link.
    pub(crate) fn link(&self) -> LinkCfg {
        LinkCfg::wan(self.owd)
            .with_bandwidth(self.bandwidth_bps)
            .with_drop_prob(self.drop_prob)
    }

    /// A provider with Fig. 1 defaults: 30 ms OWD, 1 Gbps, no loss, a
    /// `/8` core route and a `/24` internal subnet derived from `rloc`.
    pub fn new(name: &str, rloc: Ipv4Address) -> Self {
        let o = rloc.0;
        Self {
            name: name.to_string(),
            rloc,
            owd: Ns::from_ms(30),
            bandwidth_bps: 1_000_000_000,
            drop_prob: 0.0,
            core_route: Prefix::new(Ipv4Address::new(o[0], 0, 0, 0), 8),
            internal_prefix: Prefix::new(Ipv4Address::new(o[0], o[1], o[2], 0), 24),
        }
    }

    /// Same, but announcing a `/16` at the core — the scheme generated
    /// multi-site topologies use so provider routes never collide.
    pub fn new_slash16(name: &str, rloc: Ipv4Address) -> Self {
        let o = rloc.0;
        Self {
            core_route: Prefix::new(Ipv4Address::new(o[0], o[1], 0, 0), 16),
            ..Self::new(name, rloc)
        }
    }
}

/// One site: an autonomous domain with its own EID prefix, providers,
/// hosts and DNS presence.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Site name (`"S"`, `"D"`, `"D17"`, …). Node names derive from it.
    pub name: String,
    /// The site's EID prefix.
    pub eid_prefix: Prefix,
    /// Border routers, one per provider. At least one required.
    pub providers: Vec<ProviderSpec>,
    /// Client (traffic source) or server (traffic sink).
    pub role: SiteRole,
    /// Host population. For server sites this is the number of distinct
    /// destination EIDs (`host-0 … host-{n-1}` in the site zone).
    pub hosts: usize,
}

impl SiteSpec {
    /// A client site (one traffic host, a recursive resolver, no zone).
    pub fn client(name: &str, eid_prefix: Prefix, providers: Vec<ProviderSpec>) -> Self {
        Self {
            name: name.to_string(),
            eid_prefix,
            providers,
            role: SiteRole::Client,
            hosts: 1,
        }
    }

    /// A server site with `hosts` destination EIDs and its own zone.
    pub fn server(
        name: &str,
        eid_prefix: Prefix,
        providers: Vec<ProviderSpec>,
        hosts: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            eid_prefix,
            providers,
            role: SiteRole::Server,
            hosts,
        }
    }

    pub(crate) fn eid_with_last_octet(&self, last: u8) -> Ipv4Address {
        let o = self.eid_prefix.addr().0;
        Ipv4Address::new(o[0], o[1], o[2], last)
    }

    /// The address of this site's single client / server host.
    pub fn host_addr(&self) -> Ipv4Address {
        match self.role {
            SiteRole::Client => self.eid_with_last_octet(5),
            SiteRole::Server => self.eid_with_last_octet(7),
        }
    }

    /// Destination EID of `host-{i}` (server sites).
    pub fn dest_eid(&self, i: usize) -> Ipv4Address {
        self.eid_with_last_octet(10u8.wrapping_add((i % 200) as u8))
    }

    /// The site's DNS server address (first provider's internal subnet).
    pub fn dns_addr(&self) -> Ipv4Address {
        let o = self.providers[0].internal_prefix.addr().0;
        Ipv4Address::new(o[0], o[1], o[2], 53)
    }

    /// The site's PCE address (first provider's internal subnet).
    pub fn pce_addr(&self) -> Ipv4Address {
        let o = self.providers[0].internal_prefix.addr().0;
        Ipv4Address::new(o[0], o[1], o[2], 200)
    }

    /// The DNS zone label of a server site (lower-cased site name).
    pub fn zone_label(&self) -> String {
        self.name.to_lowercase()
    }

    /// The site's fully-qualified zone under `suffix`, the topology's
    /// [`TopologySpec::zone_suffix`].
    fn zone_in(&self, suffix: &str) -> String {
        let label = self.zone_label();
        if suffix.is_empty() {
            label
        } else {
            format!("{label}.{suffix}")
        }
    }
}

/// Spell `args` into `buf`, which is cleared first: one growing buffer
/// serves every generated name, so a name costs no `String` of its own.
pub(crate) fn spell<'b>(buf: &'b mut String, args: fmt::Arguments<'_>) -> &'b str {
    buf.clear();
    buf.write_fmt(args)
        .expect("writing to a String cannot fail");
    buf
}

/// [`spell`] a generated DNS name: the `Name`'s own allocation is the
/// only one.
fn spell_name(buf: &mut String, args: fmt::Arguments<'_>) -> Name {
    Name::parse_str(spell(buf, args)).expect("valid generated name")
}

/// Where things are: sites around a core, plus DNS and mapping-system
/// placement.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// All sites, in construction order.
    pub sites: Vec<SiteSpec>,
    /// One-way delay of DNS-infrastructure links (root/TLD ↔ core).
    pub infra_owd: Ns,
    /// Drop probability on DNS-infrastructure links.
    pub infra_drop_prob: f64,
    /// DNS delegation levels above the site-authoritative servers:
    /// `2` (default) is the paper's root + `example` TLD; `1` lets the
    /// root delegate site zones directly; deeper values chain extra
    /// servers (`sub.example`, `sub2.sub.example`, …).
    pub dns_depth: usize,
    /// Mapping-system placement: one-way delay of the mapping-system
    /// infrastructure links (MR / NERD authority / ALT & CONS overlay
    /// nodes ↔ core). `None` places them at `infra_owd`.
    pub mapsys_owd: Option<Ns>,
}

impl TopologySpec {
    /// Zone name served by each DNS-infrastructure level, root (`""`)
    /// first: [`Self::zone_suffix`] and its ancestors, so the delegation
    /// chain and the site-zone suffix cannot drift apart.
    ///
    /// # Panics
    /// Panics when the zone suffix is longer than a DNS name may be
    /// (a `dns_depth` in the forties), as [`ScenarioSpec::build`] would.
    pub fn level_suffixes(&self) -> Vec<String> {
        let deepest = Name::parse_str(&self.zone_suffix()).expect("valid zone suffix");
        let mut levels: Vec<String> = deepest.ancestors().map(str::to_owned).collect();
        levels.reverse();
        levels
    }

    /// The zone suffix under which site zones live, per [`Self::dns_depth`]:
    /// depth 1 → `""` (site zones are TLDs), depth 2 → `"example"`,
    /// depth 3 → `"sub.example"`, depth 4 → `"sub2.sub.example"`, …
    pub fn zone_suffix(&self) -> String {
        let depth = self.dns_depth.max(1);
        let mut suffix = String::new();
        for k in (0..depth.saturating_sub(2)).rev() {
            match k {
                0 => suffix.push_str("sub."),
                k => write!(suffix, "sub{}.", k + 1).expect("writing to a String cannot fail"),
            }
        }
        if depth > 1 {
            suffix.push_str("example");
        }
        suffix
    }

    /// Fully-qualified zone name of a server site.
    pub fn site_zone(&self, site: &SiteSpec) -> String {
        site.zone_in(&self.zone_suffix())
    }

    /// Fully-qualified name of `host-{i}` at a server site.
    pub fn host_name(&self, site: &SiteSpec, i: usize) -> String {
        format!("host-{i}.{}", self.site_zone(site))
    }

    /// The DNS-infrastructure zones, root first, one per
    /// [`Self::level_suffixes`] entry, each delegating the next. The
    /// deepest is the parent of every server-site zone; the site layer
    /// of [`ScenarioSpec::build`] delegates each as it adds the site.
    fn infra_zones(&self, buf: &mut String) -> Vec<Zone> {
        let levels: Vec<Name> = (self.level_suffixes().iter())
            .map(|z| Name::parse_str(z).expect("valid zone name"))
            .collect();
        (levels.iter().enumerate())
            .map(|(level, apex)| {
                let mut zone = Zone::new(apex.clone());
                if let Some(child) = levels.get(level + 1) {
                    let ns = spell_name(buf, format_args!("ns.{}", child.as_str()));
                    zone.delegate(child.clone(), vec![(ns, infra_dns_addr(level + 1))], 86_400);
                }
                zone
            })
            .collect()
    }
}

/// How the client site exercises the network.
#[derive(Debug, Clone)]
pub enum Workload {
    /// An explicit flow script (full control; Fig. 1 experiments).
    Explicit(Vec<FlowSpec>),
    /// Poisson flow arrivals with Zipf *cross-site* destination
    /// popularity: the destination site is Zipf(s)-ranked in spec
    /// order, the host within the site is uniform.
    PoissonZipf {
        /// Number of flows to generate.
        flows: usize,
        /// Mean arrival rate (flows per second).
        rate_per_sec: f64,
        /// Zipf skew across destination sites (0 = uniform).
        zipf_s: f64,
        /// Traffic shape of every flow.
        mode: FlowMode,
    },
}

/// One timed topology/mapping mutation.
#[derive(Debug, Clone)]
pub struct DynEvent {
    /// Absolute simulation time at which the event fires.
    pub at: Ns,
    /// What happens.
    pub kind: DynEventKind,
}

/// The kinds of timed mutation the dynamics subsystem can apply
/// (DESIGN.md §7). Sites and providers are addressed by spec name.
#[derive(Debug, Clone)]
pub enum DynEventKind {
    /// The provider's WAN link goes administratively down (both
    /// directions). No control-plane reaction is scheduled — raw link
    /// churn for testing transport behaviour.
    LinkDown {
        /// Site name.
        site: String,
        /// Provider name within the site.
        provider: String,
    },
    /// The provider's WAN link comes back up.
    LinkUp {
        /// Site name.
        site: String,
        /// Provider name within the site.
        provider: String,
    },
    /// A locator failure with its full control-plane aftermath: the
    /// provider link goes down permanently, the site IGP re-routes its
    /// default egress and notifies the domain PCE after
    /// [`DynamicsSpec::detection_delay`], and the site re-registers its
    /// mappings onto the next surviving provider after
    /// [`DynamicsSpec::reregister_delay`] (Map-Resolver table update,
    /// NERD update + full re-push, ALT/CONS delivery re-point).
    RlocFail {
        /// Site name.
        site: String,
        /// Provider name within the site.
        provider: String,
    },
    /// Mapping churn without a failure: re-register the site's mappings
    /// to point at the named provider at the event time.
    Remap {
        /// Site name.
        site: String,
        /// Provider name within the site.
        provider: String,
    },
    /// The mapping-infrastructure node serving `site` crashes: volatile
    /// state is lost (`Node::on_crash`), deliveries addressed to it are
    /// dropped, and — when [`ScenarioSpec::replicas`] arms a standby —
    /// failover fires after [`ReplicaSpec::detection_delay`]. Which node
    /// this means depends on the control plane: the shared Map-Resolver
    /// (pull variants), the NERD authority, the ALT entry gateway, the
    /// site's CONS CAR, or the site's PCE bump. `NoLisp` has no mapping
    /// node, so the event is a no-op there.
    NodeDown {
        /// Site whose mapping service is targeted (selects the CAR /
        /// PCE in per-site planes; ignored by shared-node planes).
        site: String,
    },
    /// The crashed mapping node restarts (`Node::on_restart`): it comes
    /// back with whatever its plane's state-loss policy preserves
    /// (DESIGN.md §13) and resumes serving. Traffic that failed over to
    /// a standby stays there — failover is sticky.
    NodeUp {
        /// Same site key as the matching [`DynEventKind::NodeDown`].
        site: String,
    },
}

/// Deterministic, seed-driven schedule of topology and mapping dynamics
/// layered onto a [`ScenarioSpec`] (DESIGN.md §7). Every mutation is
/// applied through the engine's `(time, seq)` event order — link-state
/// changes as engine `LinkAdmin` events, node-state changes as
/// `Sim::schedule_call`s made at build — so two runs of the same spec
/// and seed stay byte-identical, failures included. Packets offered to
/// a provider link while it is down are dropped.
#[derive(Debug, Clone)]
pub struct DynamicsSpec {
    /// The timed mutations, in any order.
    pub events: Vec<DynEvent>,
    /// Enable xTR RLOC probing (liveness detection on every referenced
    /// locator; required for pull systems to notice a dead tunnel end).
    pub rloc_probing: Option<RlocProbeCfg>,
    /// How long the site-internal plane (IGP → PCE, IGP → default
    /// route) takes to learn of a border failure.
    pub detection_delay: Ns,
    /// How long the site takes to re-register its mappings with the
    /// mapping system after a locator failure.
    pub reregister_delay: Ns,
}

impl Default for DynamicsSpec {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            rloc_probing: None,
            detection_delay: Ns::from_ms(50),
            reregister_delay: Ns::from_ms(150),
        }
    }
}

impl DynamicsSpec {
    /// An empty schedule with the default delays and no probing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical failure-recovery schedule (experiment E10): RLOC
    /// probing on every xTR, and one permanent locator failure of
    /// `provider` at `site`, at time `at`.
    pub fn rloc_failure(site: &str, provider: &str, at: Ns) -> Self {
        Self {
            events: vec![DynEvent {
                at,
                kind: DynEventKind::RlocFail {
                    site: site.to_string(),
                    provider: provider.to_string(),
                },
            }],
            rloc_probing: Some(RlocProbeCfg::default()),
            ..Self::default()
        }
    }

    /// The canonical availability schedule (experiment E13): the
    /// mapping node serving `site` crashes at `down_at` and restarts at
    /// `up_at`. No RLOC probing — the data path is healthy throughout;
    /// only the mapping infrastructure blinks.
    pub fn mapsys_outage(site: &str, down_at: Ns, up_at: Ns) -> Self {
        Self::new()
            .with_event(
                down_at,
                DynEventKind::NodeDown {
                    site: site.to_string(),
                },
            )
            .with_event(
                up_at,
                DynEventKind::NodeUp {
                    site: site.to_string(),
                },
            )
    }

    /// Append an event, builder-style.
    pub fn with_event(mut self, at: Ns, kind: DynEventKind) -> Self {
        self.events.push(DynEvent { at, kind });
        self
    }
}

/// Warm-standby replication of the mapping infrastructure (DESIGN.md
/// §13). `Some(ReplicaSpec)` on [`ScenarioSpec::replicas`] adds one
/// standby twin per mapping role (the address plan reserves one): a
/// second Map-Resolver sharing the registration database, a standby
/// NERD authority that re-pushes on promotion, a standby ALT entry
/// gateway, a standby CONS CAR per site, and (client sites only) a
/// standby PCE bump warm-mirrored by the primary. Failover is
/// deterministic and sticky: xTRs walk their ordered replica list on
/// request exhaustion and start later requests at the resolver they
/// rotated to; infrastructure takeover timers fire exactly
/// [`ReplicaSpec::detection_delay`] after a [`DynEventKind::NodeDown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSpec {
    /// How long death of a primary takes to detect: promotion /
    /// re-route timers fire this long after the crash.
    pub detection_delay: Ns,
}

impl Default for ReplicaSpec {
    fn default() -> Self {
        Self {
            detection_delay: Ns::from_ms(200),
        }
    }
}

/// xTR map-request retry shaping for the availability experiments. The
/// default (`None`/identity everywhere) leaves the xTR's own defaults
/// in place, so worlds built without a `RetrySpec` stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySpec {
    /// Map-request retransmit interval (`None` = xTR default, 1 s).
    pub retransmit: Option<Ns>,
    /// Attempts per resolver before rotating / giving up (`None` = 3).
    pub max_tries: Option<u32>,
    /// Exponential backoff multiplier between retransmits (1 = flat).
    pub backoff_multiplier: u32,
    /// Ceiling on any single backoff step.
    pub backoff_cap: Ns,
    /// Re-arm a fresh request cycle this long after exhausting every
    /// resolver (`None` = give up permanently, the historical default).
    pub cooldown: Option<Ns>,
}

impl Default for RetrySpec {
    fn default() -> Self {
        Self {
            retransmit: None,
            max_tries: None,
            backoff_multiplier: 1,
            backoff_cap: Ns::from_secs(30),
            cooldown: None,
        }
    }
}

/// One adversarial role layered onto a scenario (DESIGN.md §10).
///
/// Every role compiles at build time, in [`crate::adversary`], into a
/// fully scripted `AttackNode` (or, for [`AttackerSpec::Overclaim`], a
/// config flag on a legitimate xTR), so adversarial worlds replay
/// byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackerSpec {
    /// An in-site compromised host scanning randomized EIDs: each scan
    /// packet is a spoofed Map-Request-triggering probe that forces the
    /// site ITR to miss and signal. Targets mix live cross-site EIDs
    /// (cache thrash) and dead EIDs (resolver waste: each dead target
    /// costs the full retry budget).
    MapRequestFlood {
        /// Scan packets per second.
        rate_per_sec: f64,
        /// Total scan packets.
        packets: usize,
    },
    /// An off-site node spraying spoofed, unsolicited Map-Replies that
    /// claim every server site's prefix and point it at the attacker's
    /// own RLOC. Undefended xTRs install them and tunnel traffic into
    /// the attacker's sink.
    CachePoison {
        /// Spoofed replies per second (per victim xTR).
        rate_per_sec: f64,
        /// Spray rounds (each round re-poisons every victim).
        rounds: usize,
    },
    /// A *legitimate* ETR of `site` answering Map-Requests with a
    /// prefix truncated to `prefix_len` — claiming address space it
    /// does not own (the overclaiming attack of Saucez et al.).
    Overclaim {
        /// The misbehaving site's name.
        site: String,
        /// The too-broad prefix length it claims.
        prefix_len: u8,
    },
}

/// Which defenses are armed, scenario-wide (DESIGN.md §10). Default is
/// everything off — the pre-E12 worlds are reproduced bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DefenseSpec {
    /// xTR-side defenses (nonce/origin verification, reply scope limit,
    /// negative caching, per-source rate limiting).
    pub xtr: DefenseCfg,
    /// Ingress guard on the mapping-system side: the Map-Resolver, the
    /// ALT gateway and every CONS CAR rate-limit per source EID; the
    /// resolver also negative-caches unresolvable targets.
    pub resolver_guard: Option<GuardCfg>,
}

impl DefenseSpec {
    /// The standard armed-defenses profile E12 measures: reply
    /// verification on, replies must be `/16` or finer, 5 s negative
    /// TTL, 16 requests/s per source at both the xTR and the resolver.
    pub fn armed() -> Self {
        Self {
            xtr: DefenseCfg {
                verify_replies: true,
                reply_scope_limit: Some(16),
                negative_ttl: Some(Ns::from_secs(5)),
                source_rate: Some(lispdp::SourceRateCfg {
                    window: Ns::from_secs(1),
                    max_requests: 16,
                }),
            },
            resolver_guard: Some(GuardCfg::standard()),
        }
    }
}

/// The full description of one runnable scenario: topology + control
/// plane + workload + mapping knobs + (optionally) timed dynamics.
///
/// Start from a preset and mutate, then [`ScenarioSpec::build`]:
///
/// ```
/// use pcelisp::prelude::*;
///
/// // The paper's Fig. 1 world under the PCE control plane.
/// let mut world = ScenarioSpec::fig1(CpKind::Pce).build(1);
/// assert_eq!(world.site("S").role, SiteRole::Client);
/// assert_eq!(world.site("D").provider_names, vec!["X", "Y"]);
///
/// world.start_flow(0);
/// world.sim.run_until(Ns::from_secs(5));
/// assert!(world.records()[0].setup_time().is_some());
/// ```
///
/// A failure-recovery scenario layers a [`DynamicsSpec`] on top:
///
/// ```
/// use pcelisp::prelude::*;
///
/// let mut spec = ScenarioSpec::multi_site(CpKind::Pce, 2, 2);
/// spec.dynamics = Some(DynamicsSpec::rloc_failure("D0", "D0a", Ns::from_secs(2)));
/// let world = spec.build(1); // schedules the failure deterministically
/// assert_eq!(world.sites.len(), 3); // client S + servers D0, D1
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The topology.
    pub topology: TopologySpec,
    /// The control plane installed.
    pub cp: CpKind,
    /// The workload driving the client site.
    pub workload: Workload,
    /// Map-cache TTL used by vanilla xTRs for their replies (minutes).
    pub mapping_ttl_minutes: u16,
    /// Register host-granular (/32) mappings instead of site prefixes.
    pub fine_grained_mappings: bool,
    /// PCE precompute claim on/off (ablation A2).
    pub pce_precompute: bool,
    /// PCE pushes to all ITRs (ablation A1 turns off).
    pub pce_push_all: bool,
    /// IRC selection policy of every PCE. The default,
    /// [`SelectionPolicy::WeightedBalance`], spreads flows across
    /// providers; failure experiments use a utilisation-blind policy
    /// (e.g. [`SelectionPolicy::MinCost`]) so the primary locator is
    /// the same provider every control plane registers.
    pub pce_policy: SelectionPolicy,
    /// The global EID space the xTRs classify against. `None` derives
    /// it from the site prefixes.
    pub eid_space: Option<Vec<Prefix>>,
    /// Timed topology/mapping dynamics (`None` = the static world every
    /// pre-dynamics experiment runs on).
    pub dynamics: Option<DynamicsSpec>,
    /// Map-cache shape of every xTR (capacity + eviction policy). The
    /// default, unbounded, reproduces the pre-E12 worlds bit-for-bit.
    pub cache: CacheSpec,
    /// Which defenses are armed (default: none).
    pub defense: DefenseSpec,
    /// Adversarial roles layered onto the world (default: none).
    pub attackers: Vec<AttackerSpec>,
    /// Warm-standby replication of the mapping infrastructure
    /// (`None` = the historical single-instance worlds, bit-for-bit).
    pub replicas: Option<ReplicaSpec>,
    /// xTR map-request retry shaping (`None` = xTR defaults).
    pub retry: Option<RetrySpec>,
    /// Miss policy of every xTR that resolves by pull (lisp-drop,
    /// lisp-queue, lisp-data-cp, ALT, CONS); push-plane xTRs (NERD,
    /// PCE) keep theirs. `None` keeps each plane's own. Latency
    /// experiments set a queue so pull planes hold packets instead of
    /// dropping them.
    pub pull_miss_policy: Option<MissPolicy>,
}

impl ScenarioSpec {
    /// Largest `dest_sites` the [`Self::multi_site`] address plan holds:
    /// EID first octets walk `120..=128` and provider first octets
    /// `24..=41`, clear of the `8.x`/`9.x` infrastructure space and of
    /// each other.
    pub const MAX_DEST_SITES: usize = 2048;

    /// The paper's Fig. 1 world: source domain **S** (EIDs `100/8`,
    /// providers **A** `10/8` and **B** `11/8`), destination domain
    /// **D** (EIDs `101/8`, providers **X** `12/8`, **Y** `13/8`),
    /// a three-level DNS hierarchy, and the given control plane. The
    /// default workload is one TCP flow to `host-0.d.example`.
    pub fn fig1(cp: CpKind) -> Self {
        let site_s = SiteSpec::client(
            "S",
            Prefix::new(Ipv4Address::new(100, 0, 0, 0), 8),
            vec![
                ProviderSpec::new("A", addrs::XTR_A),
                ProviderSpec::new("B", addrs::XTR_B),
            ],
        );
        let site_d = SiteSpec::server(
            "D",
            Prefix::new(Ipv4Address::new(101, 0, 0, 0), 8),
            vec![
                ProviderSpec::new("X", addrs::XTR_X),
                ProviderSpec::new("Y", addrs::XTR_Y),
            ],
            8,
        );
        Self {
            topology: TopologySpec {
                sites: vec![site_s, site_d],
                infra_owd: Ns::from_ms(15),
                infra_drop_prob: 0.0,
                dns_depth: 2,
                mapsys_owd: None,
            },
            cp,
            workload: Workload::Explicit(vec![FlowSpec {
                start: Ns::ZERO,
                qname: Name::parse_str("host-0.d.example").expect("valid"),
                mode: FlowMode::Tcp {
                    packets: 4,
                    interval: Ns::from_ms(1),
                    size: 200,
                },
            }]),
            mapping_ttl_minutes: 60,
            fine_grained_mappings: false,
            pce_precompute: true,
            pce_push_all: true,
            // The figure's xTRs classify against one covering prefix.
            eid_space: Some(vec![Prefix::new(Ipv4Address::new(100, 0, 0, 0), 7)]),
            pce_policy: SelectionPolicy::WeightedBalance,
            dynamics: None,
            cache: CacheSpec::default(),
            defense: DefenseSpec::default(),
            attackers: Vec::new(),
            replicas: None,
            retry: None,
            pull_miss_policy: None,
        }
    }

    /// A generated scale topology: one client site `S` plus
    /// `dest_sites` server sites `D0 … D{n-1}`, each with two providers
    /// and `hosts_per_site` destination EIDs, on non-colliding `/16`
    /// address plans. The default workload is Poisson arrivals with
    /// Zipf(1.0) cross-site popularity, `3 × dest_sites` flows.
    ///
    /// The address plan spans site indexes beyond one octet by stepping
    /// the *first* octet every 256 sites (EIDs walk `120.x`, `121.x`, …;
    /// provider RLOC pairs walk `24.x`/`25.x`, then `26.x`/`27.x`, …),
    /// so worlds up to [`Self::MAX_DEST_SITES`] sites stay collision-free
    /// while plans for the first 255 sites are bit-identical to the
    /// historical single-octet layout (E9/E10 goldens).
    ///
    /// # Panics
    /// Panics if `dest_sites` is 0 or above [`Self::MAX_DEST_SITES`].
    pub fn multi_site(cp: CpKind, dest_sites: usize, hosts_per_site: usize) -> Self {
        assert!(
            (1..=Self::MAX_DEST_SITES).contains(&dest_sites),
            "dest_sites must be in 1..={}",
            Self::MAX_DEST_SITES
        );
        let providers_of = |idx: usize, name: &str| -> Vec<ProviderSpec> {
            let hi = (idx >> 8) as u8;
            let lo = (idx & 0xff) as u8;
            vec![
                ProviderSpec::new_slash16(
                    &format!("{name}a"),
                    Ipv4Address::new(24 + 2 * hi, lo, 0, 1),
                ),
                ProviderSpec::new_slash16(
                    &format!("{name}b"),
                    Ipv4Address::new(25 + 2 * hi, lo, 0, 1),
                ),
            ]
        };
        let eid_prefix_of = |idx: usize| -> Prefix {
            Prefix::new(
                Ipv4Address::new(120 + (idx >> 8) as u8, (idx & 0xff) as u8, 0, 0),
                16,
            )
        };
        let mut sites = vec![SiteSpec::client(
            "S",
            eid_prefix_of(0),
            providers_of(0, "S"),
        )];
        for i in 0..dest_sites {
            let name = format!("D{i}");
            sites.push(SiteSpec::server(
                &name,
                eid_prefix_of(i + 1),
                providers_of(i + 1, &name),
                hosts_per_site,
            ));
        }
        Self {
            topology: TopologySpec {
                sites,
                infra_owd: Ns::from_ms(15),
                infra_drop_prob: 0.0,
                dns_depth: 2,
                mapsys_owd: None,
            },
            cp,
            workload: Workload::PoissonZipf {
                flows: 3 * dest_sites,
                rate_per_sec: 2.0,
                zipf_s: 1.0,
                mode: FlowMode::Udp {
                    packets: 3,
                    interval: Ns::from_ms(2),
                    size: 300,
                },
            },
            mapping_ttl_minutes: 60,
            fine_grained_mappings: false,
            pce_precompute: true,
            pce_push_all: true,
            pce_policy: SelectionPolicy::WeightedBalance,
            eid_space: None,
            dynamics: None,
            cache: CacheSpec::default(),
            defense: DefenseSpec::default(),
            attackers: Vec::new(),
            replicas: None,
            retry: None,
            pull_miss_policy: None,
        }
    }

    /// Mutate the spec in place, builder-style.
    pub fn with(mut self, f: impl FnOnce(&mut Self)) -> Self {
        f(&mut self);
        self
    }

    /// Set the one-way delay of every provider link.
    pub fn set_provider_owd(&mut self, owd: Ns) {
        for site in &mut self.topology.sites {
            for p in &mut site.providers {
                p.owd = owd;
            }
        }
    }

    /// Inject random loss on every provider and DNS-infrastructure WAN
    /// link (failure experiments).
    pub fn set_wan_drop_prob(&mut self, prob: f64) {
        for site in &mut self.topology.sites {
            for p in &mut site.providers {
                p.drop_prob = prob;
            }
        }
        self.topology.infra_drop_prob = prob;
    }

    /// Set the destination-EID count of every server site.
    pub fn set_dest_count(&mut self, n: usize) {
        for site in &mut self.topology.sites {
            if site.role == SiteRole::Server {
                site.hosts = n;
            }
        }
    }

    /// Replace the workload with an explicit flow script.
    pub fn set_flows(&mut self, flows: Vec<FlowSpec>) {
        self.workload = Workload::Explicit(flows);
    }

    /// Resolve the workload to a concrete flow script for the client.
    pub fn resolve_flows(&self, seed: u64) -> Vec<FlowSpec> {
        match &self.workload {
            Workload::Explicit(flows) => flows.clone(),
            Workload::PoissonZipf {
                flows,
                rate_per_sec,
                zipf_s,
                mode,
            } => {
                let servers: Vec<&SiteSpec> = self
                    .topology
                    .sites
                    .iter()
                    .filter(|s| s.role == SiteRole::Server)
                    .collect();
                assert!(!servers.is_empty(), "workload needs a server site");
                for s in &servers {
                    assert!(
                        s.hosts > 0,
                        "server site {:?} has no hosts: the generated workload \
                         would query names its zone never registers",
                        s.name
                    );
                }
                let suffix = self.topology.zone_suffix();
                let mut arrivals = PoissonArrivals::new(seed, *rate_per_sec);
                let mut site_pick = ZipfPicker::new(seed.wrapping_add(1), servers.len(), *zipf_s);
                // A site's host picker, zone and host names are made on
                // its first pick. The picker's seed is the site's own, so
                // it draws what a picker made up front would; each host's
                // name is spelled once and shared by all its flows.
                let mut picked: Vec<Option<PickedSite>> = vec![None; servers.len()];
                let mut buf = String::new();
                (0..*flows)
                    .map(|_| {
                        let si = site_pick.pick();
                        let site = picked[si].get_or_insert_with(|| PickedSite {
                            hosts: ZipfPicker::new(
                                seed.wrapping_add(2 + si as u64),
                                servers[si].hosts,
                                0.0,
                            ),
                            zone: servers[si].zone_in(&suffix),
                            names: vec![None; servers[si].hosts],
                        });
                        let hi = site.hosts.pick();
                        let zone = &site.zone;
                        let qname = site.names[hi]
                            .get_or_insert_with(|| {
                                spell_name(&mut buf, format_args!("host-{hi}.{zone}"))
                            })
                            .clone();
                        FlowSpec {
                            start: arrivals.next_arrival(),
                            qname,
                            mode: *mode,
                        }
                    })
                    .collect()
            }
        }
    }
}

/// A server site's workload state, made by [`ScenarioSpec::resolve_flows`]
/// at the site's first pick.
#[derive(Clone)]
struct PickedSite {
    /// Uniform picker over the site's hosts.
    hosts: ZipfPicker,
    /// The site's zone.
    zone: String,
    /// Each host's name, once a flow has picked it.
    names: Vec<Option<Name>>,
}

/// Built handles of one site, keyed by the site's spec.
pub struct SiteWorld {
    /// The site's name.
    pub name: String,
    /// Client or server.
    pub role: SiteRole,
    /// The site's EID prefix.
    pub eid_prefix: Prefix,
    /// The site-internal [`FlowRouter`].
    pub router: NodeId,
    /// The site host: [`TrafficHost`] (client) or [`ServerHost`]
    /// (server).
    pub host: NodeId,
    /// The host's address.
    pub host_addr: Ipv4Address,
    /// The site DNS node: recursive [`Resolver`] (client) or
    /// [`AuthServer`] (server).
    pub dns: NodeId,
    /// The DNS node's address.
    pub dns_addr: Ipv4Address,
    /// The site's PCE (when the control plane is [`CpKind::Pce`]).
    pub pce: Option<NodeId>,
    /// The site's standby PCE twin (replicated PCE worlds, client
    /// sites only).
    pub pce_standby: Option<NodeId>,
    /// Provider names, in spec order.
    pub provider_names: Vec<String>,
    /// Border routers, one per provider; empty under [`CpKind::NoLisp`].
    pub xtrs: Vec<NodeId>,
    /// Border-router RLOCs, one per provider (also under `NoLisp`).
    pub xtr_rlocs: Vec<Ipv4Address>,
    /// Link index of each provider's WAN link (for `sim.link_stats`).
    /// Under `NoLisp` every provider entry aliases the single uplink.
    pub provider_links: Vec<usize>,
    /// Site-router egress port toward each provider's xTR (TE pins).
    pub egress_ports: Vec<PortId>,
    /// Destination EIDs (`host-0 …`) of a server site.
    pub dest_eids: Vec<Ipv4Address>,
    /// The site's DNS zone (server sites).
    pub zone: Option<String>,
}

impl SiteWorld {
    /// Index of a provider by name.
    pub fn provider_index(&self, name: &str) -> Option<usize> {
        self.provider_names.iter().position(|p| p == name)
    }
}

/// The built world: the simulation plus every handle experiments need,
/// keyed by site / provider name.
pub struct World {
    /// The simulation (typed packets; see DESIGN.md §9).
    pub sim: Sim<Packet>,
    /// Control plane installed.
    pub cp: CpKind,
    /// The core "Internet" router.
    pub core: NodeId,
    /// Per-site handles, in spec order.
    pub sites: Vec<SiteWorld>,
    /// DNS-infrastructure servers, root first.
    pub infra_dns: Vec<NodeId>,
    /// The mapping infrastructure, typed by plane.
    pub mapsys: MapSystem,
    /// Attacker nodes, in [`ScenarioSpec::attackers`] order (roles that
    /// need no node of their own — overclaiming — contribute none).
    pub attack_nodes: Vec<NodeId>,
}

impl World {
    /// The site with the given name.
    ///
    /// # Panics
    /// Panics when no such site exists (a spec bug worth failing loudly
    /// on).
    pub fn site(&self, name: &str) -> &SiteWorld {
        self.sites
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no site named {name:?} in this world"))
    }

    /// The first client site (the traffic source).
    pub fn client(&self) -> &SiteWorld {
        self.sites
            .iter()
            .find(|s| s.role == SiteRole::Client)
            .expect("world has no client site")
    }

    /// All server sites, in spec order.
    pub fn server_sites(&self) -> impl Iterator<Item = &SiteWorld> {
        self.sites.iter().filter(|s| s.role == SiteRole::Server)
    }

    /// Every border router in the world, site-major.
    pub fn all_xtrs(&self) -> Vec<NodeId> {
        self.sites.iter().flat_map(|s| s.xtrs.clone()).collect()
    }

    /// Schedule the start of every scripted flow at its spec time.
    pub fn schedule_all_flows(&mut self) {
        let client = self.client().host;
        let starts: Vec<(usize, Ns)> = {
            let host = self.sim.node_ref::<TrafficHost>(client);
            host.flows
                .iter()
                .enumerate()
                .map(|(i, f)| (i, f.start))
                .collect()
        };
        for (i, at) in starts {
            self.sim
                .schedule_timer(client, at, TrafficHost::start_token(i));
        }
    }

    /// Start one flow now.
    pub fn start_flow(&mut self, i: usize) {
        let client = self.client().host;
        self.sim
            .schedule_timer(client, Ns::ZERO, TrafficHost::start_token(i));
    }

    /// Start time of the last scripted flow (workload horizon helper).
    pub fn last_flow_start(&self) -> Ns {
        self.sim
            .node_ref::<TrafficHost>(self.client().host)
            .flows
            .iter()
            .map(|f| f.start)
            .fold(Ns::ZERO, Ns::max)
    }

    /// The flow records measured so far at the client.
    pub fn records(&self) -> Vec<crate::hosts::FlowRecord> {
        self.sim
            .node_ref::<TrafficHost>(self.client().host)
            .records
            .clone()
    }

    /// UDP data-packet arrival times at one server site's host, in
    /// arrival order (the outage signal of the recovery experiments).
    pub fn udp_arrivals(&self, site: &str) -> Vec<Ns> {
        self.sim
            .node_ref::<ServerHost>(self.site(site).host)
            .udp_arrivals
            .clone()
    }

    /// Data packets received by all destination hosts (UDP mode).
    pub fn server_udp_received(&self) -> u64 {
        self.server_sites()
            .map(|s| self.sim.node_ref::<ServerHost>(s.host).total_udp())
            .sum()
    }

    /// Sum of miss-drops across all xTRs.
    pub fn total_miss_drops(&self) -> u64 {
        self.sites
            .iter()
            .flat_map(|s| s.xtrs.iter())
            .map(|&x| self.sim.node_ref::<Xtr>(x).stats.miss_drops)
            .sum()
    }

    /// Bytes carried on each provider link of a site, both directions,
    /// in provider order.
    pub fn provider_bytes(&self, site: &str) -> Vec<u64> {
        self.site(site)
            .provider_links
            .iter()
            .map(|&l| self.sim.link_stats(l, 0).tx_bytes + self.sim.link_stats(l, 1).tx_bytes)
            .collect()
    }

    /// Bytes arriving INTO a site per provider link (direction
    /// core→border), in provider order. Links are created as
    /// `connect(xtr, core)`: dir 0 = outbound, dir 1 = inbound.
    pub fn provider_inbound_bytes(&self, site: &str) -> Vec<u64> {
        self.site(site)
            .provider_links
            .iter()
            .map(|&l| self.sim.link_stats(l, 1).tx_bytes)
            .collect()
    }
}

impl ScenarioSpec {
    /// Construct the world, one layer at a time in a fixed order, so node
    /// ids, link indices and build-time events follow from the spec
    /// alone: spec checks, DNS zone data, site nodes, the DNS side (the
    /// PCE plane's bumps), the border, DNS infrastructure at the core,
    /// registrations and the mapping plane, attackers, dynamics. Each
    /// layer writes its handles into the one site table.
    ///
    /// # Panics
    /// Panics on an ill-formed spec: no sites, a site without
    /// providers, not exactly one client site, a server site with a
    /// host population outside `1..=200` (the per-site EID address
    /// plan holds 200 hosts), a dynamics event naming an unknown site
    /// or provider, a flow script longer than
    /// [`TrafficHost::MAX_FLOWS`], or (via [`MappingDb`]) duplicate EID
    /// prefixes across sites.
    pub fn build(&self, seed: u64) -> World {
        self.check();
        let topo = &self.topology;
        let flows = self.resolve_flows(seed);
        let mut sim: Sim<Packet> = Sim::new(seed);
        // Every name this build spells (node names, host and server DNS
        // names) goes through this one buffer.
        let mut buf = String::new();
        let mut infra_zones = topo.infra_zones(&mut buf);
        let core = sim.add_node("core", Box::new(Router::new()));
        let deepest = infra_zones
            .last_mut()
            .expect("the root level is always there");
        let mut sites = self.add_sites(&mut sim, flows, deepest, &mut buf);
        let infra_dns = add_infra_dns(&mut sim, infra_zones);
        // The site router hands the site's EIDs to its host.
        for site in &sites {
            let route = [site.eid_prefix];
            attach_to_site(&mut sim, site.router, site.host, LinkCfg::lan(), route);
        }
        let pce_standby_port = attach_site_dns(self, &mut sim, &mut sites, &mut buf);
        let eid_space = (self.eid_space.clone())
            .unwrap_or_else(|| sites.iter().map(|s| s.eid_prefix).collect());
        let eid_space = Arc::new(PrefixSet::new(eid_space));
        self.add_border(&mut sim, core, &mut sites, &eid_space, &mut buf);
        let infra_link = LinkCfg::wan(topo.infra_owd).with_drop_prob(topo.infra_drop_prob);
        for (level, &node) in infra_dns.iter().enumerate() {
            let route = Prefix::host(infra_dns_addr(level));
            attach_to_core(&mut sim, core, node, route, infra_link);
        }
        let mut db = MappingDb::new();
        for site in &sites {
            for prefix in self.registered(site) {
                let etr = site.xtr_rlocs[0];
                db.register(SiteEntry::single(prefix, etr, self.mapping_ttl_minutes));
            }
        }
        let mapsys = MapSystem::build(self, &mut sim, core, &db);
        let attack_nodes = add_attackers(self, seed, &mut sim, core, &sites, &eid_space);
        if let Some(dynamics) = &self.dynamics {
            self.schedule_dynamics(dynamics, &mut sim, &sites, &mapsys, pce_standby_port);
        }
        World {
            sim,
            cp: self.cp,
            core,
            sites,
            infra_dns,
            mapsys,
            attack_nodes,
        }
    }

    /// Spec layer: reject an ill-formed spec before any node exists.
    fn check(&self) {
        let sites = &self.topology.sites;
        assert!(!sites.is_empty(), "spec has no sites");
        assert!(
            sites.iter().all(|s| !s.providers.is_empty()),
            "every site needs at least one provider"
        );
        let clients = sites.iter().filter(|s| s.role == SiteRole::Client).count();
        assert!(
            clients == 1,
            "spec needs exactly one client site (found {clients}): the workload \
             drives a single traffic source"
        );
        for s in sites {
            if s.role == SiteRole::Server {
                assert!(
                    (1..=200).contains(&s.hosts),
                    "server site {:?} has {} hosts; the per-site EID plan \
                     (last octet 10 + i) holds 1..=200",
                    s.name,
                    s.hosts
                );
            }
        }
        for ev in self.dynamics.iter().flat_map(|d| &d.events) {
            ev.kind.target(sites);
        }
    }

    /// Site layer: the site table, one [`SiteWorld`] per site holding
    /// what the spec fixes (names, addresses, destination EIDs, the zone,
    /// which `parent`, the deepest DNS-infrastructure zone, delegates),
    /// then every site's router, every host and every DNS node. Later
    /// layers write the other handles.
    fn add_sites(
        &self,
        sim: &mut Sim<Packet>,
        flows: Vec<FlowSpec>,
        parent: &mut Zone,
        buf: &mut String,
    ) -> Vec<SiteWorld> {
        let specs = &self.topology.sites;
        let suffix = parent.apex.clone();
        // Each server site's zone, in site order, for its DNS node.
        let mut apexes = Vec::new();
        let mut sites: Vec<SiteWorld> = (specs.iter())
            .map(|s| {
                let mut dest_eids = Vec::new();
                let mut zone = None;
                if s.role == SiteRole::Server {
                    dest_eids = (0..s.hosts).map(|i| s.dest_eid(i)).collect();
                    let text = s.zone_in(suffix.as_str());
                    let apex = Name::parse_str(&text).expect("valid zone name");
                    let ns = spell_name(buf, format_args!("ns.{}", apex.as_str()));
                    parent.delegate(apex.clone(), vec![(ns, s.dns_addr())], 86_400);
                    apexes.push(apex);
                    zone = Some(text);
                }
                SiteWorld {
                    name: s.name.clone(),
                    role: s.role,
                    eid_prefix: s.eid_prefix,
                    // Set by the node passes below.
                    router: NodeId::MAX,
                    host: NodeId::MAX,
                    host_addr: s.host_addr(),
                    dns: NodeId::MAX,
                    dns_addr: s.dns_addr(),
                    pce: None,
                    pce_standby: None,
                    provider_names: s.providers.iter().map(|p| p.name.clone()).collect(),
                    xtrs: Vec::new(),
                    xtr_rlocs: s.providers.iter().map(|p| p.rloc).collect(),
                    provider_links: Vec::new(),
                    egress_ports: Vec::new(),
                    dest_eids,
                    zone,
                }
            })
            .collect();
        for (site, s) in sites.iter_mut().zip(specs) {
            let name = spell(buf, format_args!("site-{}", s.name));
            site.router = sim.add_node(name, Box::new(FlowRouter::new()));
        }
        // The flow script moves into the one client site's host.
        let mut flows = Some(flows);
        for (site, s) in sites.iter_mut().zip(specs) {
            let host: Box<dyn Node<Packet>> = match s.role {
                SiteRole::Client => {
                    let flows = flows.take().expect("exactly one client site");
                    Box::new(TrafficHost::new(s.host_addr(), s.dns_addr(), flows))
                }
                SiteRole::Server => Box::new(ServerHost::new(s.host_addr())),
            };
            site.host = sim.add_node(spell(buf, format_args!("E_{}", s.name)), host);
        }
        let mut apexes = apexes.iter();
        for (site, s) in sites.iter_mut().zip(specs) {
            let dns: Box<dyn Node<Packet>> = match s.role {
                SiteRole::Client => {
                    let cfg = ResolverConfig {
                        ipc_notify: self.cp.pce_addr(s),
                    };
                    Box::new(Resolver::with_config(s.dns_addr(), vec![addrs::ROOT], cfg))
                }
                SiteRole::Server => {
                    let apex = apexes.next().expect("one zone per server site");
                    let store = site_zone(s, apex, &site.dest_eids, buf);
                    Box::new(AuthServer::new(s.dns_addr(), store))
                }
            };
            site.dns = sim.add_node(spell(buf, format_args!("DNS_{}", s.name)), dns);
        }
        sites
    }

    /// Border layer: one xTR per provider between the site router and
    /// the core — all xTR nodes first (site-major, provider-minor, the
    /// figure's construction order), then their site links, then their
    /// WAN links — or, in a plane without xTRs, the site router's own
    /// uplink.
    fn add_border(
        &self,
        sim: &mut Sim<Packet>,
        core: NodeId,
        sites: &mut [SiteWorld],
        eid_space: &Arc<PrefixSet>,
        buf: &mut String,
    ) {
        let specs = &self.topology.sites;
        if !self.cp.has_xtrs() {
            return add_direct_uplinks(sim, core, sites, specs);
        }
        for (i, (site, s)) in sites.iter_mut().zip(specs).enumerate() {
            site.xtrs = (0..s.providers.len())
                .map(|k| {
                    let xtr = Xtr::new(self.xtr_config(i, s, k, eid_space));
                    let name = spell(buf, format_args!("xTR-{}", s.providers[k].name));
                    sim.add_node(name, Box::new(xtr))
                })
                .collect();
        }
        // Site ports (xTR port 0 = site); the first provider's border
        // carries the default route.
        for site in sites.iter_mut() {
            site.egress_ports = (site.xtrs.iter().zip(&site.xtr_rlocs).enumerate())
                .map(|(k, (&x, &rloc))| {
                    let default = (k == 0).then_some(Prefix::DEFAULT);
                    let routes = once(Prefix::host(rloc)).chain(default);
                    attach_to_site(sim, site.router, x, LinkCfg::lan(), routes)
                })
                .collect();
        }
        // WAN ports (xTR port 1 = provider link to core).
        for (site, s) in sites.iter_mut().zip(specs) {
            site.provider_links = (site.xtrs.iter().zip(&s.providers))
                .map(|(&x, p)| {
                    let link = sim.link_count();
                    attach_to_core(sim, core, x, p.core_route, p.link());
                    link
                })
                .collect();
        }
    }

    /// The configuration of site `i`'s xTR toward its provider `k`.
    fn xtr_config(
        &self,
        i: usize,
        s: &SiteSpec,
        k: usize,
        eid_space: &Arc<PrefixSet>,
    ) -> XtrConfig {
        let cp = self.cp;
        let rloc = s.providers[k].rloc;
        let mut cfg = XtrConfig::new(rloc, s.eid_prefix, Arc::clone(eid_space), cp.xtr_mode(i));
        cfg.miss_policy = match (self.pull_miss_policy, &cfg.mode) {
            (Some(policy), CpMode::Pull { .. }) => policy,
            _ => cp.miss_policy(),
        };
        cfg.internal_plain_prefixes = s.providers.iter().map(|p| p.internal_prefix).collect();
        cfg.reverse_sync_peers = (s.providers.iter().enumerate())
            .filter(|&(j, _)| j != k)
            .map(|(_, q)| q.rloc)
            .collect();
        cfg.pced_addr = cp.pce_addr(s);
        cfg.reply_ttl_minutes = self.mapping_ttl_minutes;
        cfg.reply_host_granularity = self.fine_grained_mappings;
        cfg.rloc_probing = self.dynamics.as_ref().and_then(|d| d.rloc_probing);
        cfg.cache = self.cache;
        cfg.defense = self.defense.xtr;
        if let Some(r) = self.retry {
            cfg.request_retransmit = r.retransmit.unwrap_or(cfg.request_retransmit);
            cfg.request_max_tries = r.max_tries.unwrap_or(cfg.request_max_tries);
            cfg.request_backoff_multiplier = r.backoff_multiplier;
            cfg.request_backoff_cap = r.backoff_cap;
            cfg.request_cooldown = r.cooldown;
        }
        if self.replicas.is_some() {
            cfg.map_resolver_replicas = cp.standby_resolvers(i);
        }
        cfg.overclaim = overclaim(&self.attackers, s);
        cfg
    }

    /// What `site` registers at its first provider's ETR: its EID
    /// prefix, or one host route per EID with fine-grained mappings.
    fn registered<'a>(&self, site: &'a SiteWorld) -> impl Iterator<Item = Prefix> + 'a {
        let fine = self.fine_grained_mappings;
        let eids = once(site.host_addr).chain(site.dest_eids.iter().copied());
        let coarse = once(site.eid_prefix).filter(move |_| !fine);
        eids.filter(move |_| fine).map(Prefix::host).chain(coarse)
    }

    /// Dynamics layer: every mutation is scheduled *now*, at build time —
    /// link changes as engine LinkAdmin events, node changes as
    /// `schedule_call`s to the nodes' plain methods — so the whole
    /// failure story replays inside the deterministic (time, seq) event
    /// order. `pce_standby_port` is the site-router port toward the
    /// client site's standby PCE bump.
    fn schedule_dynamics(
        &self,
        dynamics: &DynamicsSpec,
        sim: &mut Sim<Packet>,
        sites: &[SiteWorld],
        mapsys: &MapSystem,
        pce_standby_port: Option<PortId>,
    ) {
        // Re-register site `i`'s mappings onto provider `k` at `at`.
        let reregister = |sim: &mut Sim<Packet>, at: Ns, i: usize, k: usize| {
            let prefixes: Vec<Prefix> = self.registered(&sites[i]).collect();
            let rloc = sites[i].xtr_rlocs[k];
            mapsys.reregister(sim, at, i, &prefixes, rloc, self.mapping_ttl_minutes);
        };
        for ev in &dynamics.events {
            let (i, k) = ev.kind.target(&self.topology.sites);
            let site = &sites[i];
            match ev.kind {
                DynEventKind::LinkDown { .. } | DynEventKind::LinkUp { .. } => {
                    let up = matches!(ev.kind, DynEventKind::LinkUp { .. });
                    sim.schedule_link_admin(ev.at, site.provider_links[k], up);
                }
                DynEventKind::Remap { .. } => reregister(sim, ev.at, i, k),
                DynEventKind::RlocFail { .. } => {
                    sim.schedule_link_admin(ev.at, site.provider_links[k], false);
                    let detect_at = ev.at.saturating_add(dynamics.detection_delay);
                    if let Some(fallback) = (0..site.xtr_rlocs.len()).find(|&j| j != k) {
                        // Site IGP: re-home the default egress if the
                        // failed border was carrying it.
                        if k == 0 && !site.egress_ports.is_empty() {
                            let port = site.egress_ports[fallback];
                            sim.schedule_call::<FlowRouter>(
                                site.router,
                                detect_at,
                                move |r, ctx| r.reroute(ctx, Prefix::DEFAULT, port),
                            );
                        }
                        let rereg_at = ev.at.saturating_add(dynamics.reregister_delay);
                        reregister(sim, rereg_at, i, fallback);
                    }
                    // The domain PCE hears from the site IGP and re-paths
                    // its flow database (core::pce) — one tick after the
                    // IGP itself re-converged, so the PCE's cross-domain
                    // fix always exits via the surviving default egress
                    // regardless of node-construction order.
                    if let Some(pce) = site.pce {
                        let at = detect_at.saturating_add(Ns(1));
                        sim.schedule_call::<Pce>(pce, at, move |p, ctx| {
                            p.provider_reachability_changed(ctx, k, false)
                        });
                    }
                }
                DynEventKind::NodeDown { .. } | DynEventKind::NodeUp { .. } => {
                    let up = matches!(ev.kind, DynEventKind::NodeUp { .. });
                    if let Some(node) = mapsys.node_of(site, i) {
                        sim.schedule_node_admin(ev.at, node, up);
                    }
                    if let Some(rep) = self.replicas.filter(|_| !up) {
                        let detect_at = ev.at.saturating_add(rep.detection_delay);
                        mapsys.take_over(sim, detect_at, site, pce_standby_port);
                    }
                }
            }
        }
    }
}

impl DynEventKind {
    /// The index in `sites` of the site the event names, and that of the
    /// provider it names there (0 for node events, which name none).
    ///
    /// # Panics
    /// Panics when the event names an unknown site or provider.
    fn target(&self, sites: &[SiteSpec]) -> (usize, usize) {
        let (site, provider) = match self {
            DynEventKind::LinkDown { site, provider }
            | DynEventKind::LinkUp { site, provider }
            | DynEventKind::RlocFail { site, provider }
            | DynEventKind::Remap { site, provider } => (site, Some(provider)),
            DynEventKind::NodeDown { site } | DynEventKind::NodeUp { site } => (site, None),
        };
        let i = (sites.iter().position(|s| s.name == *site))
            .unwrap_or_else(|| panic!("dynamics event names unknown site {site:?}"));
        let k = provider.map_or(0, |name| {
            (sites[i].providers.iter().position(|p| p.name == *name)).unwrap_or_else(|| {
                let at = &sites[i].name;
                panic!("dynamics event names unknown provider {name:?} at site {at:?}")
            })
        });
        (i, k)
    }
}

/// Address of the DNS-infrastructure server at `level` (0 = root).
fn infra_dns_addr(level: usize) -> Ipv4Address {
    match level {
        0 => addrs::ROOT,
        1 => addrs::TLD,
        l => Ipv4Address::new(9, 0, (l - 1) as u8, 53),
    }
}

/// A server site's authoritative zone data: its host and every
/// destination EID under `apex`.
fn site_zone(s: &SiteSpec, apex: &Name, dest_eids: &[Ipv4Address], buf: &mut String) -> ZoneStore {
    let z = apex.as_str();
    let mut zone = Zone::new(apex.clone());
    let host = spell_name(buf, format_args!("host.{z}"));
    zone.add_a(host, s.host_addr(), 300);
    for (i, &eid) in dest_eids.iter().enumerate() {
        zone.add_a(spell_name(buf, format_args!("host-{i}.{z}")), eid, 300);
    }
    let mut store = ZoneStore::new();
    store.add_zone(zone);
    store
}

/// The DNS-infrastructure servers, root first, one per zone of
/// [`TopologySpec::infra_zones`].
fn add_infra_dns(sim: &mut Sim<Packet>, zones: Vec<Zone>) -> Vec<NodeId> {
    (zones.into_iter().enumerate())
        .map(|(level, zone)| {
            let name = match level {
                0 => "dns-root".to_string(),
                1 => "dns-tld".to_string(),
                l => format!("dns-l{l}"),
            };
            let mut store = ZoneStore::new();
            store.add_zone(zone);
            let server = AuthServer::new(infra_dns_addr(level), store);
            sim.add_node(&name, Box::new(server))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::flow_script;
    use mapsys::{MapResolver, NerdAuthority};
    use netsim::trace::fnv64;

    fn tcp_mode() -> FlowMode {
        FlowMode::Tcp {
            packets: 2,
            interval: Ns::from_ms(1),
            size: 100,
        }
    }

    fn run_one(cp: CpKind) -> (World, crate::hosts::FlowRecord) {
        let mut world = ScenarioSpec::fig1(cp)
            .with(|s| s.set_flows(flow_script(&[Ns::ZERO], 4, tcp_mode())))
            .build(1);
        world.sim.trace.enable();
        world.schedule_all_flows();
        world.sim.run_until(Ns::from_secs(30));
        let rec = world.records()[0].clone();
        (world, rec)
    }

    #[test]
    fn no_lisp_flow_completes() {
        let (_w, rec) = run_one(CpKind::NoLisp);
        assert!(rec.dns_time().is_some(), "dns never answered");
        assert!(rec.setup_time().is_some(), "tcp never established");
    }

    #[test]
    fn pce_flow_completes() {
        let (w, rec) = run_one(CpKind::Pce);
        assert!(rec.dns_time().is_some(), "dns: {rec:?}");
        assert!(
            rec.setup_time().is_some(),
            "tcp never established; trace:\n{}",
            w.sim.trace.render()
        );
        assert_eq!(w.total_miss_drops(), 0);
        let pce_s = w.site("S").pce.unwrap();
        let pce_d = w.site("D").pce.unwrap();
        assert!(w.sim.node_ref::<Pce>(pce_d).stats.dns_intercepts >= 1);
        let s = w.sim.node_ref::<Pce>(pce_s);
        assert!(s.stats.p_decaps >= 1);
        assert!(s.stats.pushes_sent >= 2);
    }

    #[test]
    fn lisp_drop_loses_the_syn() {
        let (w, rec) = run_one(CpKind::LispDrop);
        assert!(rec.dns_time().is_some());
        let drops = w.total_miss_drops();
        assert!(drops >= 1, "expected at least the SYN dropped, got {drops}");
    }

    #[test]
    fn lisp_queue_flow_completes() {
        let (w, rec) = run_one(CpKind::LispQueue);
        assert!(
            rec.setup_time().is_some(),
            "queued SYN must eventually establish"
        );
        assert_eq!(w.total_miss_drops(), 0);
        let queued: u64 = w
            .all_xtrs()
            .iter()
            .map(|&x| w.sim.node_ref::<Xtr>(x).stats.queued)
            .sum();
        assert!(queued >= 1);
    }

    #[test]
    fn nerd_flow_completes_without_misses() {
        let (w, rec) = run_one(CpKind::Nerd);
        assert!(rec.setup_time().is_some());
        assert_eq!(w.total_miss_drops(), 0);
        let installed: u64 = w
            .all_xtrs()
            .iter()
            .map(|&x| w.sim.node_ref::<Xtr>(x).stats.db_records_installed)
            .sum();
        assert!(installed >= 8, "4 xTRs x 2 records");
    }

    #[test]
    fn alt_and_cons_flows_complete_with_queue_policy() {
        for cp in [CpKind::Alt { hops: 3 }, CpKind::Cons { cdr_depth: 1 }] {
            let mut world = ScenarioSpec::fig1(cp)
                .with(|s| {
                    s.set_flows(flow_script(&[Ns::ZERO], 4, tcp_mode()));
                    s.pull_miss_policy = Some(MissPolicy::Queue { max_packets: 64 });
                })
                .build(1);
            world.schedule_all_flows();
            world.sim.run_until(Ns::from_secs(30));
            let rec = world.records()[0].clone();
            assert!(
                rec.setup_time().is_some(),
                "{} resolution must complete",
                cp.label()
            );
        }
    }

    #[test]
    fn pull_miss_policy_reaches_pull_xtrs_only() {
        let queue = MissPolicy::Queue { max_packets: 7 };
        let pull = [
            CpKind::LispDrop,
            CpKind::Alt { hops: 3 },
            CpKind::Cons { cdr_depth: 1 },
        ];
        for cp in pull.into_iter().chain([CpKind::Nerd, CpKind::Pce]) {
            let world = ScenarioSpec::fig1(cp)
                .with(|s| s.pull_miss_policy = Some(queue))
                .build(1);
            let want = if pull.contains(&cp) {
                queue
            } else {
                cp.miss_policy()
            };
            let xtrs = world.all_xtrs();
            assert_eq!(xtrs.len(), 4, "{}", cp.label());
            for x in xtrs {
                let xtr = world.sim.node_ref::<Xtr>(x);
                assert_eq!(xtr.cfg.miss_policy, want, "{}", cp.label());
            }
        }
    }

    #[test]
    fn pce_faster_than_lisp_queue() {
        let (_, rec_pce) = run_one(CpKind::Pce);
        let (_, rec_q) = run_one(CpKind::LispQueue);
        let (_, rec_nolisp) = run_one(CpKind::NoLisp);
        let pce = rec_pce.setup_time().unwrap();
        let q = rec_q.setup_time().unwrap();
        let nolisp = rec_nolisp.setup_time().unwrap();
        assert!(pce < q, "pce {pce} vs queue {q}");
        assert!(
            pce < nolisp + Ns::from_ms(15),
            "pce {pce} vs no-lisp {nolisp}"
        );
    }

    // ---- multi-site specs ------------------------------------------------

    fn run_multi(cp: CpKind, dest_sites: usize, seed: u64) -> World {
        let mut world = ScenarioSpec::multi_site(cp, dest_sites, 4).build(seed);
        world.sim.trace.enable();
        world.schedule_all_flows();
        let horizon = world.last_flow_start() + Ns::from_secs(30);
        world.sim.run_until(horizon);
        world
    }

    #[test]
    fn multi_site_pce_resolves_across_sites() {
        let w = run_multi(CpKind::Pce, 4, 3);
        let answered = w.records().iter().filter(|r| r.t_answer.is_some()).count();
        assert_eq!(answered, w.records().len(), "every flow must resolve");
        assert_eq!(w.total_miss_drops(), 0, "pce never drops on miss");
        // More than one destination site actually received traffic
        // (Zipf spreads across sites).
        let active_sites = w
            .server_sites()
            .filter(|s| w.sim.node_ref::<ServerHost>(s.host).total_udp() > 0)
            .count();
        assert!(
            active_sites >= 2,
            "zipf must hit ≥2 sites, got {active_sites}"
        );
    }

    #[test]
    fn multi_site_pull_resolves_with_queueing() {
        let mut w = ScenarioSpec::multi_site(CpKind::LispQueue, 3, 4).build(7);
        w.schedule_all_flows();
        let horizon = w.last_flow_start() + Ns::from_secs(30);
        w.sim.run_until(horizon);
        let delivered = w.server_udp_received();
        let sent: u64 = w.records().iter().map(|r| u64::from(r.data_sent)).sum();
        assert_eq!(delivered, sent, "queue policy must not lose packets");
    }

    #[test]
    fn multi_site_deterministic_same_seed_same_trace() {
        let run = |seed: u64| -> String {
            let w = run_multi(CpKind::Pce, 3, seed);
            w.sim.trace.render()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same spec + seed must give identical traces");
        assert!(!a.is_empty());
        let c = run(12);
        assert_ne!(a, c, "different seed must reshuffle the workload");
    }

    #[test]
    fn deeper_dns_hierarchy_still_resolves() {
        let mut spec = ScenarioSpec::multi_site(CpKind::NoLisp, 2, 2);
        spec.topology.dns_depth = 3;
        // Re-derive the workload against the deeper suffix.
        spec.workload = Workload::PoissonZipf {
            flows: 4,
            rate_per_sec: 2.0,
            zipf_s: 1.0,
            mode: FlowMode::Udp {
                packets: 2,
                interval: Ns::from_ms(2),
                size: 200,
            },
        };
        assert_eq!(spec.topology.zone_suffix(), "sub.example");
        let mut w = spec.build(5);
        w.schedule_all_flows();
        let horizon = w.last_flow_start() + Ns::from_secs(30);
        w.sim.run_until(horizon);
        let answered = w.records().iter().filter(|r| r.t_answer.is_some()).count();
        assert_eq!(answered, 4, "4-level DNS walk must resolve");
    }

    // ---- dynamics --------------------------------------------------------

    const T_FAIL: Ns = Ns::from_ms(1500);

    /// One long CBR flow S → host-0.d0.example with D0's primary
    /// locator failing permanently at `T_FAIL`.
    fn recovery_world(cp: CpKind) -> World {
        let mut spec = ScenarioSpec::multi_site(cp, 2, 2);
        let qname = spec.topology.host_name(&spec.topology.sites[1], 0);
        spec.set_flows(vec![FlowSpec {
            start: Ns::ZERO,
            qname: Name::parse_str(&qname).expect("valid"),
            mode: FlowMode::Udp {
                packets: 80,
                interval: Ns::from_ms(50),
                size: 200,
            },
        }]);
        spec.dynamics = Some(DynamicsSpec::rloc_failure("D0", "D0a", T_FAIL));
        // Utilisation-blind ingress choice, so the PCE's primary locator
        // is the registered provider 0 like every other control plane.
        spec.pce_policy = SelectionPolicy::MinCost;
        let mut w = spec.build(1);
        w.schedule_all_flows();
        w.sim.run_until(Ns::from_secs(10));
        w
    }

    fn last_arrival(w: &World) -> Ns {
        w.udp_arrivals("D0").last().copied().unwrap_or(Ns::ZERO)
    }

    #[test]
    fn pce_recovers_quickly_after_locator_failure() {
        let w = recovery_world(CpKind::Pce);
        // The PCE of D0 re-pathed the flow and told the remote tunnel end.
        let pce = w.site("D0").pce.expect("pce world");
        let stats = &w.sim.node_ref::<Pce>(pce).stats;
        assert_eq!(stats.provider_events, 1, "{stats:?}");
        assert!(stats.repaths >= 1, "{stats:?}");
        // Traffic kept flowing after the failure, over provider D0b.
        assert!(last_arrival(&w) > T_FAIL + Ns::from_secs(1));
        let inbound = w.provider_inbound_bytes("D0");
        assert!(
            inbound[1] > 0,
            "recovered traffic must ride D0b: {inbound:?}"
        );
        // Push-based recovery: only a handful of packets died in the
        // detection window.
        let lost = w.records()[0].data_sent as u64 - w.server_udp_received();
        assert!(lost <= 5, "pce black-holed {lost} packets");
    }

    #[test]
    fn pull_recovers_via_probe_timeout_and_reresolution() {
        let w = recovery_world(CpKind::LispQueue);
        // The map-resolver applied the site's re-registration…
        let MapSystem::Resolver { primary: mr, .. } = w.mapsys else {
            panic!("pull world");
        };
        assert_eq!(w.sim.node_ref::<MapResolver>(mr).updates_applied, 1);
        // …and the probing ITR noticed the dead locator and re-resolved.
        let probe_timeouts: u64 = w
            .site("S")
            .xtrs
            .iter()
            .map(|&x| w.sim.node_ref::<Xtr>(x).stats.probe_timeouts)
            .sum();
        assert!(probe_timeouts >= 1);
        assert!(last_arrival(&w) > T_FAIL + Ns::from_secs(1));
        let inbound = w.provider_inbound_bytes("D0");
        assert!(
            inbound[1] > 0,
            "recovered traffic must ride D0b: {inbound:?}"
        );
    }

    #[test]
    fn nerd_recovers_via_full_repush() {
        let w = recovery_world(CpKind::Nerd);
        let MapSystem::Nerd { primary: nerd, .. } = w.mapsys else {
            panic!("nerd world");
        };
        let auth = w.sim.node_ref::<NerdAuthority>(nerd);
        assert_eq!(auth.updates_applied, 1);
        assert!(auth.push_rounds >= 2, "boot push + failure re-push");
        assert!(last_arrival(&w) > T_FAIL + Ns::from_secs(1));
    }

    #[test]
    fn dynamics_runs_are_deterministic() {
        let run = |seed: u64| -> String {
            let mut spec = ScenarioSpec::multi_site(CpKind::LispQueue, 2, 2);
            spec.dynamics = Some(DynamicsSpec::rloc_failure("D0", "D0a", T_FAIL));
            let mut w = spec.build(seed);
            w.sim.trace.enable();
            w.schedule_all_flows();
            w.sim.run_until(Ns::from_secs(8));
            w.sim.trace.render()
        };
        assert_eq!(run(3), run(3), "failure dynamics must stay deterministic");
        assert_ne!(run(3), run(4));
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn dynamics_event_with_unknown_site_fails_loudly() {
        let mut spec = ScenarioSpec::multi_site(CpKind::Pce, 2, 2);
        spec.dynamics = Some(DynamicsSpec::rloc_failure("D9", "D9a", T_FAIL));
        let _ = spec.build(1);
    }

    #[test]
    #[should_panic(expected = "holds 1..=200")]
    fn oversized_host_population_fails_loudly() {
        // dest_eid's last-octet plan wraps past 200 hosts; the spec must
        // reject the population instead of silently aliasing EIDs (or
        // tripping the MappingDb duplicate panic with a confusing message).
        let spec = ScenarioSpec::fig1(CpKind::Pce).with(|s| {
            s.set_dest_count(201);
            s.fine_grained_mappings = true;
        });
        let _ = spec.build(1);
    }

    #[test]
    #[should_panic(expected = "one client holds at most 24536")]
    fn flow_script_past_the_port_range_fails_loudly() {
        // Flow 24,536 would send from port 65,536: a debug build panics
        // on the overflow and a release build wraps onto ports 0, 1, …
        // 53, which collide with DNS and with other flows.
        let flows = flow_script(&vec![Ns::ZERO; TrafficHost::MAX_FLOWS + 1], 1, tcp_mode());
        let _ = ScenarioSpec::fig1(CpKind::Pce)
            .with(|s| s.set_flows(flows))
            .build(1);
    }

    #[test]
    #[should_panic(expected = "exactly one client site")]
    fn second_client_site_is_rejected() {
        // World drives a single traffic source; a second client site
        // would silently never start its flows, so build refuses it.
        let mut spec = ScenarioSpec::multi_site(CpKind::Pce, 2, 2);
        spec.topology.sites[2].role = SiteRole::Client;
        let _ = spec.build(1);
    }

    #[test]
    #[should_panic(expected = "holds 1..=200")]
    fn zero_host_server_site_fails_loudly() {
        // A generated workload against an empty zone would NXDOMAIN
        // forever and read as control-plane loss; fail at build instead.
        let _ = ScenarioSpec::multi_site(CpKind::Pce, 2, 0).build(1);
    }

    #[test]
    #[should_panic(expected = "has no hosts")]
    fn zero_host_workload_resolution_fails_loudly() {
        // resolve_flows is also callable standalone; it must reject an
        // empty server zone rather than generating unanswerable qnames.
        let mut spec = ScenarioSpec::multi_site(CpKind::Pce, 2, 2);
        spec.topology.sites[1].hosts = 0;
        let _ = spec.resolve_flows(1);
    }

    #[test]
    fn zone_suffix_matches_delegation_chain() {
        for depth in 1..=4 {
            let mut spec = ScenarioSpec::multi_site(CpKind::NoLisp, 2, 2);
            spec.topology.dns_depth = depth;
            let levels = spec.topology.level_suffixes();
            assert_eq!(levels.len(), depth.max(1));
            assert_eq!(
                spec.topology.zone_suffix(),
                levels.last().cloned().unwrap_or_default(),
                "site zones must hang off the deepest delegation level"
            );
        }
    }

    #[test]
    fn duplicate_site_prefixes_fail_loudly() {
        let mut spec = ScenarioSpec::multi_site(CpKind::LispDrop, 2, 2);
        let dup = spec.topology.sites[1].eid_prefix;
        spec.topology.sites[2].eid_prefix = dup;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.build(1)));
        assert!(
            result.is_err(),
            "colliding EID prefixes must panic at build"
        );
    }

    #[test]
    fn fig1_world_handles_are_keyed_by_name() {
        let w = ScenarioSpec::fig1(CpKind::Pce).build(1);
        assert_eq!(w.sites.len(), 2);
        assert_eq!(w.site("S").role, SiteRole::Client);
        assert_eq!(w.site("D").role, SiteRole::Server);
        assert_eq!(w.site("S").provider_index("B"), Some(1));
        assert_eq!(w.site("D").provider_names, vec!["X", "Y"]);
        assert_eq!(w.site("D").dest_eids.len(), 8);
        assert_eq!(w.site("S").xtr_rlocs[0], addrs::XTR_A);
        assert_eq!(w.provider_bytes("D").len(), 2);
    }

    #[test]
    fn xtrs_share_one_eid_space() {
        let eid_space = |w: &World, x: NodeId| Arc::clone(&w.sim.node_ref::<Xtr>(x).cfg.eid_space);
        // Derived from the sites: one allocation, however many xTRs.
        let w = ScenarioSpec::multi_site(CpKind::Pce, 64, 2).build(1);
        let xtrs = w.all_xtrs();
        assert_eq!(xtrs.len(), 2 * w.sites.len());
        let first = eid_space(&w, xtrs[0]);
        assert_eq!(first.prefixes().len(), w.sites.len());
        assert!(xtrs.iter().all(|&x| Arc::ptr_eq(&first, &eid_space(&w, x))));
        // Given by the spec: Fig. 1's 100.0.0.0/7 reaches every xTR.
        for cp in CpKind::all() {
            let w = ScenarioSpec::fig1(cp).build(1);
            let want = [Prefix::new(Ipv4Address::new(100, 0, 0, 0), 7)];
            for x in w.all_xtrs() {
                assert_eq!(eid_space(&w, x).prefixes(), want, "{}", cp.label());
            }
        }
    }

    #[test]
    fn generated_flow_scripts_are_pinned() {
        // Every flow script multi_site generates, over sizes, DNS depths,
        // planes and seeds; recorded before host names and host pickers
        // were made once per site. The goldens reach only a few of these.
        let mut digests = Vec::new();
        for n in [1, 64, 2048] {
            for depth in 1..=4 {
                for cp in CpKind::all() {
                    let mut spec = ScenarioSpec::multi_site(cp, n, 2);
                    spec.topology.dns_depth = depth;
                    for seed in 1..=3 {
                        let mut bytes = Vec::new();
                        for flow in spec.resolve_flows(seed) {
                            bytes.extend_from_slice(&flow.start.0.to_le_bytes());
                            bytes.extend_from_slice(flow.qname.as_str().as_bytes());
                            bytes.extend_from_slice(format!("{:?}", flow.mode).as_bytes());
                        }
                        digests.extend_from_slice(&fnv64(&bytes).to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(fnv64(&digests), 0xdaface01cc9a4bb5);
    }
}
