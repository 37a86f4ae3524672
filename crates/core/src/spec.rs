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
//!   for 2 sites or 200.
//!
//! [`ScenarioSpec::fig1`] is a preset that reproduces the paper's
//! Fig. 1 world *exactly* (same node names, ordering, addressing and
//! therefore byte-identical experiment tables — pinned by
//! `tests/golden_compat.rs`). [`ScenarioSpec::multi_site`] generates
//! N-destination-site worlds for the scale experiments (E9).

use crate::adversary::{AttackNode, ScanRng};
use crate::hosts::{FlowMode, FlowSpec, ServerHost, TrafficHost};
use crate::pce::{Pce, PceConfig};
use crate::plane::{attach_to_core, MapSystem};
use crate::scenario::{addrs, CpKind, FlowRouter};
use crate::workload::{PoissonArrivals, ZipfPicker};
use inet::stack::IpStack;
use inet::{Prefix, PrefixSet, Router};
use ircte::Provider;
pub use ircte::SelectionPolicy;
use lispdp::{CacheSpec, CpMode, DefenseCfg, MissPolicy, RlocProbeCfg, Xtr, XtrConfig};
use lispwire::dnswire::Name;
use lispwire::lispctl::{Locator, MapRecord, MapReply};
use lispwire::packet::CtlMsg;
use lispwire::{ports, Ipv4Address, Packet};
use mapsys::api::{MappingDb, SiteEntry};
use mapsys::GuardCfg;
use netsim::{DownPolicy, LinkCfg, NodeId, Ns, PortId, Sim};
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
    /// Per-site map-cache override (`None` = the scenario-wide
    /// [`ScenarioSpec::cache`]).
    pub cache: Option<CacheSpec>,
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
            cache: None,
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
            cache: None,
        }
    }

    fn eid_with_last_octet(&self, last: u8) -> Ipv4Address {
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
fn spell<'b>(buf: &'b mut String, args: fmt::Arguments<'_>) -> &'b str {
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
    /// The provider's WAN link comes back up (stalled packets flush).
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
/// changes as engine `LinkAdmin` events, node-state changes as timers
/// pre-scheduled at build — so two runs of the same spec and seed stay
/// byte-identical, failures included.
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
    /// What provider WAN links do with packets while down.
    pub down_policy: DownPolicy,
}

impl Default for DynamicsSpec {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            rloc_probing: None,
            detection_delay: Ns::from_ms(50),
            reregister_delay: Ns::from_ms(150),
            down_policy: DownPolicy::Drop,
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
/// standby twin per mapping role: a second Map-Resolver sharing the
/// registration database, a standby NERD authority that re-pushes on
/// promotion, a standby ALT entry gateway, a standby CONS CAR per
/// site, and (client sites only) a standby PCE bump warm-mirrored by
/// the primary. Failover is deterministic: xTRs walk their ordered
/// replica list on request exhaustion; infrastructure takeover timers
/// fire exactly [`ReplicaSpec::detection_delay`] after a
/// [`DynEventKind::NodeDown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSpec {
    /// Standby twins per mapping role. Currently 0 or 1 — the address
    /// plan reserves one twin per role.
    pub count: u32,
    /// How long death of a primary takes to detect: promotion /
    /// re-route timers fire this long after the crash.
    pub detection_delay: Ns,
    /// xTR failover stickiness: after failing over, new requests start
    /// at the resolver that last answered instead of re-trying the
    /// primary first.
    pub sticky_failover: bool,
}

impl Default for ReplicaSpec {
    fn default() -> Self {
        Self {
            count: 1,
            detection_delay: Ns::from_ms(200),
            sticky_failover: true,
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
/// Every role compiles at build time into a fully scripted
/// [`AttackNode`] (or, for [`AttackerSpec::Overclaim`], a config flag on
/// a legitimate xTR), so adversarial worlds replay byte-identically.
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
    /// Scenario-wide map-cache shape of every xTR (capacity + eviction
    /// policy; [`SiteSpec::cache`] overrides per site). The default,
    /// unbounded, reproduces the pre-E12 worlds bit-for-bit.
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

    /// Set provider bandwidths in site-major, provider-minor order
    /// (Fig. 1: `[A, B, X, Y]`). Extra entries are ignored; missing
    /// entries leave the provider unchanged.
    pub fn set_provider_bw(&mut self, bw: &[u64]) {
        let mut it = bw.iter();
        for site in &mut self.topology.sites {
            for p in &mut site.providers {
                if let Some(&b) = it.next() {
                    p.bandwidth_bps = b;
                }
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

    fn derived_eid_space(&self) -> Vec<Prefix> {
        match &self.eid_space {
            Some(space) => space.clone(),
            None => self.topology.sites.iter().map(|s| s.eid_prefix).collect(),
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
    /// Construct the world.
    ///
    /// # Panics
    /// Panics on an ill-formed spec: no sites, a site without
    /// providers, not exactly one client site, a server site with a
    /// host population outside `1..=200` (the per-site EID address
    /// plan holds 200 hosts), a flow script longer than
    /// [`TrafficHost::MAX_FLOWS`], or (via [`MappingDb`]) duplicate EID
    /// prefixes across sites.
    pub fn build(&self, seed: u64) -> World {
        let topo = &self.topology;
        let cp = self.cp;
        assert!(!topo.sites.is_empty(), "spec has no sites");
        assert!(
            topo.sites.iter().all(|s| !s.providers.is_empty()),
            "every site needs at least one provider"
        );
        let clients = topo
            .sites
            .iter()
            .filter(|s| s.role == SiteRole::Client)
            .count();
        assert!(
            clients == 1,
            "spec needs exactly one client site (found {clients}): the workload \
             drives a single traffic source"
        );
        for s in &topo.sites {
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

        let mut sim: Sim<Packet> = Sim::new(seed);
        // The flow script moves into the one client site's host.
        let mut flows = Some(self.resolve_flows(seed));
        // Every name this build spells (node names, host and server DNS
        // names) goes through this one buffer.
        let mut buf = String::new();
        let mapsys_owd = topo.mapsys_owd.unwrap_or(topo.infra_owd);
        let dyn_probing = self.dynamics.as_ref().and_then(|d| d.rloc_probing);
        let dyn_down_policy = self
            .dynamics
            .as_ref()
            .map(|d| d.down_policy)
            .unwrap_or_default();
        let provider_link = |p: &ProviderSpec| {
            LinkCfg::wan(p.owd)
                .with_bandwidth(p.bandwidth_bps)
                .with_drop_prob(p.drop_prob)
                .with_down_policy(dyn_down_policy)
        };

        // ---- DNS infrastructure zone data -----------------------------------
        // Chain of delegations: root → [intermediates] → site zones.
        // The zone each infra level serves, root first; site zones hang
        // off the deepest.
        let levels: Vec<Name> = topo
            .level_suffixes()
            .iter()
            .map(|z| Name::parse_str(z).expect("valid zone name"))
            .collect();
        let suffix = levels
            .last()
            .expect("the root level is always there")
            .as_str();
        // Each server site's zone, spelled once: its text for
        // `SiteWorld::zone`, its `Name` for the delegation and zone data.
        let mut site_zones: Vec<Option<String>> = topo
            .sites
            .iter()
            .map(|s| (s.role == SiteRole::Server).then(|| s.zone_in(suffix)))
            .collect();
        let zone_names: Vec<Option<Name>> = site_zones
            .iter()
            .map(|z| {
                z.as_deref()
                    .map(|z| Name::parse_str(z).expect("valid zone name"))
            })
            .collect();
        let infra_addr = |level: usize| -> Ipv4Address {
            match level {
                0 => addrs::ROOT,
                1 => addrs::TLD,
                l => Ipv4Address::new(9, 0, (l - 1) as u8, 53),
            }
        };
        let mut infra_stores: Vec<ZoneStore> = Vec::new();
        for (level, apex) in levels.iter().enumerate() {
            let mut zone = Zone::new(apex.clone());
            if let Some(child) = levels.get(level + 1) {
                let ns = spell_name(&mut buf, format_args!("ns.{}", child.as_str()));
                zone.delegate(child.clone(), vec![(ns, infra_addr(level + 1))], 86_400);
            } else {
                // Deepest infra level delegates every server-site zone.
                for (site, z) in topo.sites.iter().zip(&zone_names) {
                    let Some(z) = z else { continue };
                    let ns = spell_name(&mut buf, format_args!("ns.{}", z.as_str()));
                    zone.delegate(z.clone(), vec![(ns, site.dns_addr())], 86_400);
                }
            }
            let mut store = ZoneStore::new();
            store.add_zone(zone);
            infra_stores.push(store);
        }

        // Per-site authoritative zone data (server sites).
        let mut site_dest_eids: Vec<Vec<Ipv4Address>> = topo
            .sites
            .iter()
            .map(|s| match s.role {
                SiteRole::Server => (0..s.hosts).map(|i| s.dest_eid(i)).collect(),
                SiteRole::Client => Vec::new(),
            })
            .collect();
        let mut site_stores: Vec<Option<ZoneStore>> = topo
            .sites
            .iter()
            .zip(&site_dest_eids)
            .zip(&zone_names)
            .map(|((s, eids), z)| {
                let z = z.as_ref()?;
                let mut zone = Zone::new(z.clone());
                zone.add_a(
                    spell_name(&mut buf, format_args!("host.{}", z.as_str())),
                    s.host_addr(),
                    300,
                );
                for (i, eid) in eids.iter().enumerate() {
                    zone.add_a(
                        spell_name(&mut buf, format_args!("host-{i}.{}", z.as_str())),
                        *eid,
                        300,
                    );
                }
                let mut store = ZoneStore::new();
                store.add_zone(zone);
                Some(store)
            })
            .collect();

        // ---- Nodes ----------------------------------------------------------
        let core = sim.add_node("core", Box::new(Router::new()));
        let site_routers: Vec<NodeId> = topo
            .sites
            .iter()
            .map(|s| {
                let name = spell(&mut buf, format_args!("site-{}", s.name));
                sim.add_node(name, Box::new(FlowRouter::new()))
            })
            .collect();
        let hosts: Vec<NodeId> = topo
            .sites
            .iter()
            .map(|s| {
                let name = spell(&mut buf, format_args!("E_{}", s.name));
                match s.role {
                    SiteRole::Client => {
                        let flows = flows.take().expect("exactly one client site");
                        let host = TrafficHost::new(s.host_addr(), s.dns_addr(), flows);
                        sim.add_node(name, Box::new(host))
                    }
                    SiteRole::Server => {
                        sim.add_node(name, Box::new(ServerHost::new(s.host_addr())))
                    }
                }
            })
            .collect();
        let dns_nodes: Vec<NodeId> = topo
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name = spell(&mut buf, format_args!("DNS_{}", s.name));
                match s.role {
                    SiteRole::Client => {
                        let mut cfg = ResolverConfig::default();
                        if cp == CpKind::Pce {
                            cfg.ipc_notify = Some(s.pce_addr());
                        }
                        let resolver = Resolver::with_config(s.dns_addr(), vec![addrs::ROOT], cfg);
                        sim.add_node(name, Box::new(resolver))
                    }
                    SiteRole::Server => {
                        let store = site_stores[i].take().expect("server store");
                        sim.add_node(name, Box::new(AuthServer::new(s.dns_addr(), store)))
                    }
                }
            })
            .collect();
        let infra_dns: Vec<NodeId> = infra_stores
            .into_iter()
            .enumerate()
            .map(|(level, store)| {
                let name = match level {
                    0 => "dns-root".to_string(),
                    1 => "dns-tld".to_string(),
                    l => format!("dns-l{l}"),
                };
                sim.add_node(&name, Box::new(AuthServer::new(infra_addr(level), store)))
            })
            .collect();

        // ---- Hosts & site wiring ---------------------------------------------
        let host_ports: Vec<PortId> = (0..topo.sites.len())
            .map(|i| sim.connect(hosts[i], site_routers[i], LinkCfg::lan()).1)
            .collect();

        // Warm-standby replication (DESIGN.md §13): `Some` arms one
        // standby twin per mapping role below.
        let replicas = self.replicas.filter(|r| r.count > 0);
        // The standby PCE bump lives next to the primary on the site's
        // first internal subnet (primary .200, standby .201).
        let pce_standby_addr = |s: &SiteSpec| -> Ipv4Address {
            let o = s.providers[0].internal_prefix.addr().0;
            Ipv4Address::new(o[0], o[1], o[2], 201)
        };
        let pce_cfg_of = |s: &SiteSpec, addr: Ipv4Address| -> PceConfig {
            let providers: Vec<Provider> = s
                .providers
                .iter()
                .map(|p| Provider::new(&p.name, p.rloc, p.bandwidth_bps as f64 / 1e6))
                .collect();
            let mut cfg = PceConfig::new(
                addr,
                vec![s.eid_prefix],
                s.providers.iter().map(|p| p.rloc).collect(),
                providers,
            );
            cfg.precompute = self.pce_precompute;
            cfg.push_to_all_itrs = self.pce_push_all;
            cfg.policy = self.pce_policy;
            cfg.mapping_ttl_minutes = self.mapping_ttl_minutes;
            cfg
        };

        // DNS attachment: behind the PCE bump when cp == Pce.
        let mut pce_nodes: Vec<Option<NodeId>> = vec![None; topo.sites.len()];
        // Standby PCE bump and the site-router port toward it, per site.
        let mut pce_standby: Vec<Option<(NodeId, PortId)>> = vec![None; topo.sites.len()];
        let dns_ports: Vec<PortId> = if cp == CpKind::Pce {
            let pces: Vec<NodeId> = topo
                .sites
                .iter()
                .map(|s| {
                    let mut cfg = pce_cfg_of(s, s.pce_addr());
                    // The primary warm-mirrors every installed flow to
                    // its standby twin (client sites only — server-site
                    // DNS is authoritative, not resolver-driven).
                    if replicas.is_some() && s.role == SiteRole::Client {
                        cfg.mirror_to = Some(pce_standby_addr(s));
                    }
                    let name = spell(&mut buf, format_args!("PCE_{}", s.name));
                    sim.add_node(name, Box::new(Pce::new(cfg)))
                })
                .collect();
            // PCE port 0 = DNS side, port 1 = network side.
            let ports = (0..topo.sites.len())
                .map(|i| {
                    sim.connect(pces[i], dns_nodes[i], LinkCfg::ipc());
                    sim.connect(pces[i], site_routers[i], LinkCfg::lan()).1
                })
                .collect();
            let clients = topo
                .sites
                .iter()
                .enumerate()
                .filter(|(_, s)| s.role == SiteRole::Client);
            for (i, s) in clients.filter(|_| replicas.is_some()) {
                let standby = pce_cfg_of(s, pce_standby_addr(s));
                let name = spell(&mut buf, format_args!("PCE2_{}", s.name));
                let id = sim.add_node(name, Box::new(Pce::new(standby)));
                // Resolver port 1 = standby uplink; taken by the
                // `Resolver::fail_over` call the dynamics block schedules.
                sim.connect(id, dns_nodes[i], LinkCfg::ipc());
                let (_, sp) = sim.connect(id, site_routers[i], LinkCfg::lan());
                sim.node_mut::<Resolver>(dns_nodes[i])
                    .set_failover(1, pce_standby_addr(s));
                pce_standby[i] = Some((id, sp));
            }
            pce_nodes = pces.into_iter().map(Some).collect();
            ports
        } else {
            (0..topo.sites.len())
                .map(|i| sim.connect(dns_nodes[i], site_routers[i], LinkCfg::lan()).1)
                .collect()
        };

        // ---- Border: xTRs or plain routing ------------------------------------
        let eid_space = Arc::new(PrefixSet::new(self.derived_eid_space()));
        let mut site_xtrs: Vec<Vec<NodeId>> = vec![Vec::new(); topo.sites.len()];
        let mut site_links: Vec<Vec<usize>> = vec![Vec::new(); topo.sites.len()];
        let mut site_egress: Vec<Vec<PortId>> = vec![Vec::new(); topo.sites.len()];

        if cp == CpKind::NoLisp {
            // Sites connect straight to the core; EIDs globally routable.
            for (i, s) in topo.sites.iter().enumerate() {
                site_links[i] = vec![sim.link_count(); s.providers.len()];
                let (uplink, core_port) =
                    sim.connect(site_routers[i], core, provider_link(&s.providers[0]));
                let r = sim.node_mut::<Router>(core);
                r.add_route(s.eid_prefix, core_port);
                r.add_route(s.providers[0].core_route, core_port);
                let hosts = match s.role {
                    SiteRole::Client => Prefix::host(s.host_addr()),
                    SiteRole::Server => s.eid_prefix,
                };
                let r = sim.node_mut::<FlowRouter>(site_routers[i]);
                r.add_route(hosts, host_ports[i]);
                r.add_route(Prefix::host(s.dns_addr()), dns_ports[i]);
                r.set_default_route(uplink);
            }
        } else {
            // All xTR nodes first (site-major, provider-minor), matching
            // the figure's construction order.
            for (i, s) in topo.sites.iter().enumerate() {
                let internal: Vec<Prefix> = s.providers.iter().map(|p| p.internal_prefix).collect();
                let pced = (cp == CpKind::Pce).then(|| s.pce_addr());
                for (k, p) in s.providers.iter().enumerate() {
                    let peers: Vec<Ipv4Address> = s
                        .providers
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .map(|(_, q)| q.rloc)
                        .collect();
                    let mut cfg = XtrConfig::new(
                        p.rloc,
                        s.eid_prefix,
                        Arc::clone(&eid_space),
                        cp.xtr_mode(i),
                    );
                    cfg.miss_policy = match (self.pull_miss_policy, &cfg.mode) {
                        (Some(policy), CpMode::Pull { .. }) => policy,
                        _ => cp.miss_policy(),
                    };
                    cfg.internal_plain_prefixes = internal.clone();
                    cfg.reverse_sync_peers = peers;
                    cfg.pced_addr = pced;
                    cfg.reply_ttl_minutes = self.mapping_ttl_minutes;
                    cfg.reply_host_granularity = self.fine_grained_mappings;
                    cfg.rloc_probing = dyn_probing;
                    cfg.cache = s.cache.unwrap_or(self.cache);
                    cfg.defense = self.defense.xtr;
                    if let Some(r) = self.retry {
                        cfg.request_retransmit = r.retransmit.unwrap_or(cfg.request_retransmit);
                        cfg.request_max_tries = r.max_tries.unwrap_or(cfg.request_max_tries);
                        cfg.request_backoff_multiplier = r.backoff_multiplier;
                        cfg.request_backoff_cap = r.backoff_cap;
                        cfg.request_cooldown = r.cooldown;
                    }
                    if let Some(rep) = replicas {
                        cfg.resolver_failover_sticky = rep.sticky_failover;
                        cfg.map_resolver_replicas = cp.standby_resolvers(i);
                    }
                    cfg.overclaim = self.attackers.iter().rev().find_map(|atk| match atk {
                        AttackerSpec::Overclaim { site, prefix_len } if *site == s.name => {
                            Some(Prefix::new(s.eid_prefix.addr(), *prefix_len))
                        }
                        _ => None,
                    });
                    let name = spell(&mut buf, format_args!("xTR-{}", p.name));
                    let id = sim.add_node(name, Box::new(Xtr::new(cfg)));
                    site_xtrs[i].push(id);
                }
            }

            // Site ports (xTR port 0 = site).
            for (i, xtrs) in site_xtrs.iter().enumerate() {
                for &x in xtrs {
                    let (_, sp) = sim.connect(x, site_routers[i], LinkCfg::lan());
                    site_egress[i].push(sp);
                }
            }

            // WAN ports (xTR port 1 = provider link to core).
            for (i, s) in topo.sites.iter().enumerate() {
                for (k, p) in s.providers.iter().enumerate() {
                    site_links[i].push(sim.link_count());
                    attach_to_core(
                        &mut sim,
                        core,
                        site_xtrs[i][k],
                        p.core_route,
                        provider_link(p),
                    );
                }
            }

            // Site-router tables.
            for (i, s) in topo.sites.iter().enumerate() {
                let r = sim.node_mut::<FlowRouter>(site_routers[i]);
                if s.role == SiteRole::Client {
                    r.add_route(Prefix::host(s.host_addr()), host_ports[i]);
                }
                r.add_route(s.eid_prefix, host_ports[i]);
                for (k, p) in s.providers.iter().enumerate() {
                    r.add_route(Prefix::host(p.rloc), site_egress[i][k]);
                }
                r.add_route(Prefix::host(s.dns_addr()), dns_ports[i]);
                if cp == CpKind::Pce {
                    r.add_route(Prefix::host(s.pce_addr()), dns_ports[i]);
                    if let Some((_, sp)) = pce_standby[i] {
                        r.add_route(Prefix::host(pce_standby_addr(s)), sp);
                    }
                }
                r.set_default_route(site_egress[i][0]);
            }
        }

        // ---- DNS infrastructure at the core ------------------------------------
        let infra_link = LinkCfg::wan(topo.infra_owd).with_drop_prob(topo.infra_drop_prob);
        for (level, &node) in infra_dns.iter().enumerate() {
            let route = Prefix::host(infra_addr(level));
            attach_to_core(&mut sim, core, node, route, infra_link);
        }

        // ---- Mapping-system infrastructure --------------------------------------
        // What each site registers at its first provider's ETR: its EID
        // prefix, or one host route per EID with fine-grained mappings.
        let registered: Vec<Vec<Prefix>> = topo
            .sites
            .iter()
            .zip(&site_dest_eids)
            .map(|(s, eids)| {
                if self.fine_grained_mappings {
                    let eids = eids.iter().copied();
                    once(s.host_addr()).chain(eids).map(Prefix::host).collect()
                } else {
                    vec![s.eid_prefix]
                }
            })
            .collect();
        let mut db = MappingDb::new();
        for (s, prefixes) in topo.sites.iter().zip(&registered) {
            for &prefix in prefixes {
                let etr = s.providers[0].rloc;
                db.register(SiteEntry::single(prefix, etr, self.mapping_ttl_minutes));
            }
        }

        let mapsys = MapSystem::build(self, &mut sim, core, &db);

        // ---- Adversaries -----------------------------------------------------
        // Attacker nodes come after all legitimate infrastructure so that
        // attacker-free specs construct node-for-node identical worlds,
        // and every attack packet is scheduled *here*, at build time,
        // through the deterministic (time, seq) timer order.
        let mut attack_nodes: Vec<NodeId> = Vec::new();
        if !self.attackers.is_empty() {
            let live_targets: Vec<Ipv4Address> = topo
                .sites
                .iter()
                .enumerate()
                .filter(|(_, s)| s.role == SiteRole::Server)
                .flat_map(|(i, _)| site_dest_eids[i].iter().copied())
                .collect();
            let in_any_site = |a: Ipv4Address| topo.sites.iter().any(|s| s.eid_prefix.contains(a));
            let client_idx = topo
                .sites
                .iter()
                .position(|s| s.role == SiteRole::Client)
                .expect("adversarial scenarios need a client site");
            let attack_t0 = Ns::from_ms(50);

            for (ai, atk) in self.attackers.iter().enumerate() {
                match atk {
                    AttackerSpec::MapRequestFlood {
                        rate_per_sec,
                        packets,
                    } => {
                        // A compromised host inside the client site scans
                        // randomized EIDs. Each probe is ordinary data the
                        // site ITR must classify: live cross-site targets
                        // thrash the cache, dead ones burn the resolver's
                        // full retry budget.
                        let s = &topo.sites[client_idx];
                        let addr = s.eid_with_last_octet(6);
                        let stack = IpStack::new(addr);
                        let mut rng = ScanRng::new(seed ^ (ai as u64 + 1));
                        let mut script = Vec::with_capacity(*packets);
                        for _ in 0..*packets {
                            let want_live = rng.pick(2) == 0;
                            let dead = (0..32).find_map(|_| {
                                let space = eid_space.prefixes();
                                let p = space[rng.pick(space.len())];
                                let cand = p.nth_host(rng.next_u64() as u32);
                                (!in_any_site(cand)).then_some(cand)
                            });
                            let target = match (want_live, dead) {
                                (true, _) | (false, None) if !live_targets.is_empty() => {
                                    live_targets[rng.pick(live_targets.len())]
                                }
                                (_, Some(d)) => d,
                                _ => eid_space.prefixes()[0].nth_host(rng.next_u64() as u32),
                            };
                            script.push(stack.udp(9666, target, 9666, vec![0u8; 40]));
                        }
                        let period = Ns((1e9 / rate_per_sec).max(1.0) as u64);
                        let node = sim.add_node(
                            &format!("attacker-flood-{ai}"),
                            Box::new(AttackNode::new(addr, script)),
                        );
                        let (_, rp) = sim.connect(node, site_routers[client_idx], LinkCfg::lan());
                        sim.node_mut::<FlowRouter>(site_routers[client_idx])
                            .add_route(Prefix::host(addr), rp);
                        for k in 0..*packets as u64 {
                            sim.schedule_timer(node, attack_t0.saturating_add(Ns(period.0 * k)), k);
                        }
                        attack_nodes.push(node);
                    }
                    AttackerSpec::CachePoison {
                        rate_per_sec,
                        rounds,
                    } => {
                        // An off-site node sprays spoofed Map-Replies at
                        // every client-site xTR, claiming every server
                        // prefix with the attacker's own RLOC as locator.
                        // Hijacked tunnels then land back on this node,
                        // which absorbs them (counted, never delivered).
                        let addr = Ipv4Address::new(66, 6, 0, (ai + 1) as u8);
                        let stack = IpStack::new(addr);
                        let mut rng = ScanRng::new(seed ^ (0x5000 + ai as u64));
                        let victims: Vec<Ipv4Address> = topo
                            .sites
                            .iter()
                            .filter(|s| s.role == SiteRole::Client)
                            .flat_map(|s| s.providers.iter().map(|p| p.rloc))
                            .collect();
                        let claims: Vec<Prefix> = topo
                            .sites
                            .iter()
                            .filter(|s| s.role == SiteRole::Server)
                            .map(|s| s.eid_prefix)
                            .collect();
                        let mut script = Vec::new();
                        for _ in 0..*rounds {
                            for &victim in &victims {
                                for &claim in &claims {
                                    let reply = MapReply {
                                        // The attacker cannot see nonces in
                                        // flight; it guesses (verification,
                                        // when armed, rejects these).
                                        nonce: rng.next_u64(),
                                        records: vec![MapRecord {
                                            eid_prefix: claim.addr(),
                                            prefix_len: claim.len(),
                                            ttl_minutes: self.mapping_ttl_minutes,
                                            locators: vec![Locator::new(addr, 1, 100)],
                                        }],
                                    };
                                    script.push(stack.ctl(
                                        ports::LISP_CONTROL,
                                        victim,
                                        ports::LISP_CONTROL,
                                        CtlMsg::Reply(reply),
                                    ));
                                }
                            }
                        }
                        let per_round = (victims.len() * claims.len()) as u64;
                        let node = sim.add_node(
                            &format!("attacker-poison-{ai}"),
                            Box::new(AttackNode::new(addr, script)),
                        );
                        let route = Prefix::new(Ipv4Address::new(66, 0, 0, 0), 8);
                        attach_to_core(&mut sim, core, node, route, LinkCfg::wan(mapsys_owd));
                        let period = Ns((1e9 / rate_per_sec).max(1.0) as u64);
                        for r in 0..*rounds as u64 {
                            for j in 0..per_round {
                                sim.schedule_timer(
                                    node,
                                    attack_t0.saturating_add(Ns(period.0 * r)),
                                    r * per_round + j,
                                );
                            }
                        }
                        attack_nodes.push(node);
                    }
                    // Overclaiming is a config flag on the site's own
                    // xTRs, applied in the border block above.
                    AttackerSpec::Overclaim { .. } => {}
                }
            }
        }

        let sites: Vec<SiteWorld> = topo
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| SiteWorld {
                name: s.name.clone(),
                role: s.role,
                eid_prefix: s.eid_prefix,
                router: site_routers[i],
                host: hosts[i],
                host_addr: s.host_addr(),
                dns: dns_nodes[i],
                dns_addr: s.dns_addr(),
                pce: pce_nodes[i],
                pce_standby: pce_standby[i].map(|(id, _)| id),
                provider_names: s.providers.iter().map(|p| p.name.clone()).collect(),
                xtrs: std::mem::take(&mut site_xtrs[i]),
                xtr_rlocs: s.providers.iter().map(|p| p.rloc).collect(),
                provider_links: std::mem::take(&mut site_links[i]),
                egress_ports: std::mem::take(&mut site_egress[i]),
                dest_eids: std::mem::take(&mut site_dest_eids[i]),
                zone: site_zones[i].take(),
            })
            .collect();

        // ---- Timed dynamics --------------------------------------------------
        // Every mutation is scheduled *now*, at build time: link changes
        // as engine LinkAdmin events, node changes as `schedule_call`s to
        // the nodes' plain methods — so the whole failure story replays
        // inside the deterministic (time, seq) event order.
        if let Some(dynamics) = &self.dynamics {
            let site_index = |name: &str| -> usize {
                sites
                    .iter()
                    .position(|s| s.name == name)
                    .unwrap_or_else(|| panic!("dynamics event names unknown site {name:?}"))
            };
            let provider_index = |i: usize, name: &str| -> usize {
                sites[i].provider_index(name).unwrap_or_else(|| {
                    panic!(
                        "dynamics event names unknown provider {name:?} at site {:?}",
                        sites[i].name
                    )
                })
            };
            // Re-register site `i`'s mappings onto provider `k` at `at`.
            let reregister = |sim: &mut Sim<Packet>, at: Ns, i: usize, k: usize| {
                let rloc = sites[i].xtr_rlocs[k];
                mapsys.reregister(sim, at, i, &registered[i], rloc, self.mapping_ttl_minutes);
            };

            for ev in &dynamics.events {
                match &ev.kind {
                    DynEventKind::LinkDown { site, provider }
                    | DynEventKind::LinkUp { site, provider } => {
                        let i = site_index(site);
                        let k = provider_index(i, provider);
                        let up = matches!(ev.kind, DynEventKind::LinkUp { .. });
                        sim.schedule_link_admin(ev.at, sites[i].provider_links[k], up);
                    }
                    DynEventKind::Remap { site, provider } => {
                        let i = site_index(site);
                        let k = provider_index(i, provider);
                        reregister(&mut sim, ev.at, i, k);
                    }
                    DynEventKind::RlocFail { site, provider } => {
                        let i = site_index(site);
                        let k = provider_index(i, provider);
                        let site = &sites[i];
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
                            reregister(&mut sim, rereg_at, i, fallback);
                        }
                        // The domain PCE hears from the site IGP and
                        // re-paths its flow database (core::pce) — one
                        // tick after the IGP itself re-converged, so the
                        // PCE's cross-domain fix always exits via the
                        // surviving default egress regardless of
                        // node-construction order.
                        if let Some(pce) = site.pce {
                            sim.schedule_call::<Pce>(
                                pce,
                                detect_at.saturating_add(Ns(1)),
                                move |p, ctx| p.provider_reachability_changed(ctx, k, false),
                            );
                        }
                    }
                    DynEventKind::NodeDown { site } | DynEventKind::NodeUp { site } => {
                        let i = site_index(site);
                        let up = matches!(ev.kind, DynEventKind::NodeUp { .. });
                        if let Some(target) = mapsys.node_of(&sites[i], i) {
                            sim.schedule_node_admin(ev.at, target, up);
                        }
                        if let Some(rep) = replicas.filter(|_| !up) {
                            let detect_at = ev.at.saturating_add(rep.detection_delay);
                            let pce_port = pce_standby[i].map(|(_, port)| port);
                            mapsys.take_over(&mut sim, detect_at, &sites[i], pce_port);
                        }
                    }
                }
            }
        }

        World {
            sim,
            cp,
            core,
            sites,
            infra_dns,
            mapsys,
            attack_nodes,
        }
    }
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
