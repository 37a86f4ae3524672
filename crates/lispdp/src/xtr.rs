//! The xTR: a site border router combining ITR and ETR roles.
//!
//! Port convention: **port 0 faces the site**, **port 1 faces the WAN**
//! (its provider). A domain multihomed through two providers deploys two
//! xTRs, as in the paper's Fig. 1.
//!
//! Packets are typed [`Packet`] values (DESIGN.md §9): the xTR matches
//! on variants instead of parsing wire bytes, and LISP encapsulation is
//! *structural* — the inner packet rides the tunnel as a boxed value,
//! so decapsulation is a move, not a parse.
//!
//! The node implements three control-plane modes:
//!
//! * [`CpMode::Pull`] — vanilla LISP: EID-prefix map-cache, Map-Request /
//!   Map-Reply resolution through a map-resolver address, configurable
//!   [`MissPolicy`], and reverse-mapping *gleaning* from decapsulated
//!   packets (the paper's observation that the ITR doubles as the local
//!   ETR to avoid a second resolution).
//! * [`CpMode::PushDb`] — NERD-style: the full mapping database is pushed
//!   into the cache via `DbPush` messages; no pull path.
//! * [`CpMode::Pce`] — the paper's control plane: per-flow
//!   `(E_S, E_D, RLOC_S, RLOC_D)` tuples arrive from the domain PCE
//!   (step 7b) before data flows; the encapsulation source RLOC may
//!   differ from this router's own address (independent one-way tunnels);
//!   on first decapsulation of a new flow the ETR installs the return
//!   mapping, multicasts it to its peer xTRs and updates the PCE database
//!   (the paper's two-way completion after step 8).

use crate::mapcache::{CacheSpec, MapCache};
use crate::policy::MissPolicy;
use inet::stack::IpStack;
use inet::{Prefix, PrefixSet};
use lispwire::lisp::LispRepr;
use lispwire::lispctl::{Locator, MapRecord, MapReply, MapRequest, RlocProbe};
use lispwire::packet::{CtlMsg, Packet, PceMsg};
use lispwire::pcewire::{FlowMapping, PceFlowMsg, PceKind};
use lispwire::{ports, Ipv4Address};
use netsim::{Counters, Ctx, Node, Ns, PortId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Which control plane feeds this xTR's mapping state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpMode {
    /// Vanilla LISP pull through a map-resolver.
    Pull {
        /// Where Map-Requests are sent (None = no resolution, policy only).
        map_resolver: Option<Ipv4Address>,
    },
    /// NERD-style pushed database.
    PushDb,
    /// The paper's PCE-based control plane.
    Pce,
}

/// RLOC-probing configuration: the xTR's liveness check on every remote
/// locator its mapping state references (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlocProbeCfg {
    /// How often a probe round runs.
    pub interval: Ns,
    /// How long a probe may stay unanswered before its locator is
    /// declared unreachable (must be shorter than `interval`).
    pub timeout: Ns,
}

impl Default for RlocProbeCfg {
    fn default() -> Self {
        Self {
            interval: Ns::from_secs(1),
            timeout: Ns::from_ms(250),
        }
    }
}

/// Per-source-EID Map-Request rate limit: at most `max_requests` first
/// transmissions per `window` on behalf of any one site host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceRateCfg {
    /// Window length.
    pub window: Ns,
    /// Requests allowed per source EID per window.
    pub max_requests: u32,
}

/// Togglable control-plane defenses (DESIGN.md §10). Everything defaults
/// to **off** — the trusting pre-E12 behaviour — so defended and
/// undefended runs can be compared cell by cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefenseCfg {
    /// Accept a Map-Reply record only when its nonce matches an
    /// outstanding request *and* the record covers the requested EID
    /// (rejects spoofed / unsolicited replies — the CachePoison vector).
    pub verify_replies: bool,
    /// Contain Map-Reply records broader than this prefix length: an
    /// over-broad record is *clamped* to this scope around the EID whose
    /// outstanding request it answers (so an Overclaimed /8 only installs
    /// the /16 actually being resolved), and rejected outright when it
    /// matches no outstanding request.
    pub reply_scope_limit: Option<u8>,
    /// Negative cache: after a resolution gives up, remember the EID for
    /// this long and drop packets toward it without signalling again.
    pub negative_ttl: Option<Ns>,
    /// Per-source-EID Map-Request rate limiting (tames a flooding host).
    pub source_rate: Option<SourceRateCfg>,
}

/// Static configuration of an xTR.
#[derive(Debug, Clone)]
pub struct XtrConfig {
    /// This router's RLOC (its WAN-side, globally routable address).
    pub rloc: Ipv4Address,
    /// EID prefix of the local site (decap targets, glean sources).
    pub site_prefix: Prefix,
    /// The global EID space: destinations inside it need mappings,
    /// destinations outside it are plain-forwarded (RLOC space). One
    /// allocation shared by every xTR of a world: a copy each was
    /// O(sites²) bytes. Held as merged ranges, so the per-packet
    /// membership test is a binary search, not a scan of every site.
    pub eid_space: Arc<PrefixSet>,
    /// Control-plane mode.
    pub mode: CpMode,
    /// Policy for cache-missing data packets.
    pub miss_policy: MissPolicy,
    /// Map-cache capacity / eviction / expiry-sweep configuration.
    pub cache: CacheSpec,
    /// Control-plane defenses (all off by default).
    pub defense: DefenseCfg,
    /// Adversarial ETR role: answer Map-Requests with this too-broad
    /// prefix (pointing at our own locators) instead of the real site
    /// prefix — the Overclaim attack (DESIGN.md §10).
    pub overclaim: Option<Prefix>,
    /// TTL (minutes) for records this xTR issues in Map-Replies.
    pub reply_ttl_minutes: u16,
    /// Answer Map-Requests with a /32 record for the queried EID instead
    /// of the covering site prefix (host-granular mappings).
    pub reply_host_granularity: bool,
    /// Peer xTR RLOCs in the same domain (PCE reverse-sync targets).
    pub reverse_sync_peers: Vec<Ipv4Address>,
    /// The domain PCE database address to notify on reverse sync.
    pub pced_addr: Option<Ipv4Address>,
    /// RLOC-space subnets *inside* the site (DNS servers, PCEs): plain
    /// WAN packets to these are forwarded onto the site port, and plain
    /// site packets from them go out unencapsulated.
    pub internal_plain_prefixes: Vec<Prefix>,
    /// Map-Request retransmit interval (the backoff base).
    pub request_retransmit: Ns,
    /// Map-Request max transmissions per resolver.
    pub request_max_tries: u32,
    /// Deterministic exponential backoff: the wait after transmission
    /// `k` is `request_retransmit × request_backoff_multiplier^(k-1)`,
    /// each step capped at [`XtrConfig::request_backoff_cap`]. The
    /// default multiplier of 1 reproduces the fixed-interval schedule
    /// exactly.
    pub request_backoff_multiplier: u32,
    /// Per-step ceiling of the backoff schedule.
    pub request_backoff_cap: Ns,
    /// Ordered Map-Resolver replicas tried after the primary: when a
    /// resolution exhausts [`XtrConfig::request_max_tries`] against the
    /// current resolver, the xTR rotates to the next address in
    /// `[primary, replicas...]` and restarts the try counter. Empty by
    /// default (single-resolver behaviour).
    pub map_resolver_replicas: Vec<Ipv4Address>,
    /// After every resolver in the rotation is exhausted, wait this long
    /// and re-arm the resolution instead of abandoning the EID forever
    /// (`None` = historical permanent give-up). Queued packets are kept
    /// across the cool-down.
    pub request_cooldown: Option<Ns>,
    /// Periodic RLOC reachability probing (`None` = disabled). A probe
    /// timeout invalidates every cache entry and PCE flow whose only
    /// usable locator was the dead RLOC, so the next packet re-resolves
    /// instead of black-holing into a failed tunnel.
    pub rloc_probing: Option<RlocProbeCfg>,
}

impl XtrConfig {
    /// A sane default configuration for the given RLOC and site prefix.
    pub fn new(
        rloc: Ipv4Address,
        site_prefix: Prefix,
        eid_space: impl Into<Arc<PrefixSet>>,
        mode: CpMode,
    ) -> Self {
        Self {
            rloc,
            site_prefix,
            eid_space: eid_space.into(),
            mode,
            miss_policy: MissPolicy::Drop,
            cache: CacheSpec::default(),
            defense: DefenseCfg::default(),
            overclaim: None,
            reply_ttl_minutes: 60,
            reply_host_granularity: false,
            reverse_sync_peers: Vec::new(),
            pced_addr: None,
            internal_plain_prefixes: Vec::new(),
            request_retransmit: Ns::from_secs(1),
            request_max_tries: 3,
            request_backoff_multiplier: 1,
            request_backoff_cap: Ns::from_secs(30),
            map_resolver_replicas: Vec::new(),
            request_cooldown: None,
            rloc_probing: None,
        }
    }
}

/// An outstanding Map-Request resolution. `tries == 0` marks a dormant
/// entry: every resolver was exhausted and a cool-down timer is armed —
/// queued packets are kept, new packets don't re-signal, and the next
/// retry-timer firing starts a fresh round.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    nonce: u64,
    tries: u32,
    /// The site host that triggered the resolution — retries carry it so
    /// resolver-side per-source accounting sees the real requester.
    source_eid: Ipv4Address,
    /// Index into `[primary, replicas...]` this resolution is currently
    /// talking to.
    resolver_idx: usize,
    /// How many resolvers this resolution has attempted (bounds the
    /// failover rotation to one full pass).
    resolvers_tried: u32,
}

const SITE_PORT: PortId = 0;
const WAN_PORT: PortId = 1;
/// TTL (minutes) of reverse mappings gleaned in Pull mode.
const GLEAN_TTL_MINUTES: u16 = 5;
const TOKEN_RETRY_BASE: u64 = 0x4000_0000_0000_0000;
/// Probe round and probe check tokens carry the probe generation
/// (`Xtr::probe_gen`) in their low 32 bits.
const TOKEN_PROBE_ROUND: u64 = 0x1000_0000_0000_0000;
const TOKEN_PROBE_CHECK: u64 = 0x0800_0000_0000_0000;
const PROBE_GEN_MASK: u64 = 0xffff_ffff;

#[derive(Debug, Default, Clone)]
/// Public data-plane counters of an xTR.
pub struct XtrStats {
    /// Packets encapsulated toward a remote RLOC.
    pub encap: u64,
    /// Non-EID packets plain-forwarded to the WAN.
    pub plain_to_wan: u64,
    /// Cache-miss events (one per missing packet).
    pub miss_events: u64,
    /// Packets dropped by the Drop policy.
    pub miss_drops: u64,
    /// Packets buffered by the Queue policy.
    pub queued: u64,
    /// Packets dropped because the per-EID queue was full.
    pub queue_overflow_drops: u64,
    /// Reverse mappings gleaned (vanilla LISP).
    pub gleaned: u64,
    /// Reverse-sync messages sent (PCE mode).
    pub reverse_syncs_sent: u64,
    /// Flow mappings installed (pushes + syncs).
    pub flow_installs: u64,
    /// Map-Requests sent (first transmissions).
    pub map_requests_sent: u64,
    /// Map-Request retransmissions.
    pub map_request_retries: u64,
    /// Map-Replies received.
    pub map_replies_received: u64,
    /// Map-Requests answered (ETR authority role).
    pub map_requests_answered: u64,
    /// Records installed from DbPush messages.
    pub db_records_installed: u64,
    /// RLOC probes sent.
    pub probes_sent: u64,
    /// RLOC probes answered (we were the probe target).
    pub probes_answered: u64,
    /// Probe acknowledgements received.
    pub probe_acks_received: u64,
    /// Probe rounds that declared a locator unreachable.
    pub probe_timeouts: u64,
    /// Cache entries invalidated by probe timeouts.
    pub invalidated_cache_entries: u64,
    /// Map-Reply records rejected by the verify / scope-limit defenses.
    pub replies_rejected: u64,
    /// Packets dropped by an active negative-cache entry (no signalling).
    pub neg_cache_drops: u64,
    /// Map-Requests suppressed by the per-source rate limit.
    pub rate_limited_requests: u64,
    /// Resolver failovers: rotations to the next replica after a
    /// resolution exhausted its tries against the current resolver.
    pub resolver_failovers: u64,
    /// Resolutions parked on a cool-down re-arm after every resolver in
    /// the rotation was exhausted.
    pub request_rearms: u64,
    /// Malformed / unparseable packets seen.
    pub malformed: u64,
}

/// The xTR node.
pub struct Xtr {
    /// Static configuration.
    pub cfg: XtrConfig,
    stack: IpStack,
    /// The EID-prefix map-cache (Pull and PushDb modes; also gleans).
    pub cache: MapCache,
    /// The PCE per-flow table: `(src_eid, dst_eid)` → mapping.
    pub flows: BTreeMap<(Ipv4Address, Ipv4Address), FlowMapping>,
    pending: BTreeMap<Ipv4Address, VecDeque<(Packet, Ns)>>,
    in_flight: BTreeMap<Ipv4Address, InFlight>, // keyed by target EID
    neg_cache: BTreeMap<Ipv4Address, Ns>,       // eid -> valid-until
    req_windows: BTreeMap<Ipv4Address, (Ns, u32)>, // src eid -> (window start, count)
    probe_outstanding: BTreeMap<Ipv4Address, u64>, // rloc -> nonce
    /// Bumped by every crash: a probe round or check armed before the
    /// crash carries an older generation and is ignored, so a round
    /// that survives a short outage does not run beside the chain
    /// `on_restart` arms.
    probe_gen: u32,
    seen_wan_flows: BTreeSet<(Ipv4Address, Ipv4Address)>,
    /// Index into `[primary, replicas...]` new resolutions start at:
    /// failover is sticky. Volatile: reset to the primary on crash.
    resolver_cursor: usize,
    /// Data-plane counters.
    pub stats: XtrStats,
    /// Queue delays experienced by flushed packets.
    pub queue_delays: Vec<Ns>,
}

impl Xtr {
    /// Build an xTR from its configuration.
    pub fn new(cfg: XtrConfig) -> Self {
        let cache_spec = cfg.cache;
        Self {
            stack: IpStack::new(cfg.rloc),
            cache: MapCache::from_spec(cache_spec),
            flows: BTreeMap::new(),
            pending: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            neg_cache: BTreeMap::new(),
            req_windows: BTreeMap::new(),
            probe_outstanding: BTreeMap::new(),
            probe_gen: 0,
            seen_wan_flows: BTreeSet::new(),
            resolver_cursor: 0,
            stats: XtrStats::default(),
            queue_delays: Vec::new(),
            cfg,
        }
    }

    /// This xTR's RLOC.
    pub fn rloc(&self) -> Ipv4Address {
        self.cfg.rloc
    }

    fn in_site(&self, addr: Ipv4Address) -> bool {
        self.cfg.site_prefix.contains(addr)
    }

    fn in_eid_space(&self, addr: Ipv4Address) -> bool {
        self.cfg.eid_space.contains(addr)
    }

    fn in_internal_plain(&self, addr: Ipv4Address) -> bool {
        self.cfg
            .internal_plain_prefixes
            .iter()
            .any(|p| p.contains(addr))
    }

    /// Control messages to peers inside the domain ride the site network;
    /// anything else exits via the provider.
    fn control_port_for(&self, dst: Ipv4Address) -> PortId {
        if self.in_internal_plain(dst) || self.in_site(dst) {
            SITE_PORT
        } else {
            WAN_PORT
        }
    }

    /// A fresh nonce for a Map-Request, an RLOC probe or a data header,
    /// drawn from the world's seeded RNG: an off-path attacker cannot
    /// predict it, and a replay of the seed draws it again.
    fn next_nonce(ctx: &mut Ctx<'_, Packet>) -> u64 {
        ctx.rng().next_u64()
    }

    /// LISP-encapsulate `inner` between the given tunnel ends and count
    /// it (structural: no serialization).
    fn encap(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        inner: Packet,
        outer_src: Ipv4Address,
        outer_dst: Ipv4Address,
    ) -> Packet {
        self.stats.encap += 1;
        let nonce = (Self::next_nonce(ctx) & 0x00ff_ffff) as u32;
        // Locator-status bits: this site advertises one locator.
        let lisp_repr = LispRepr::with_nonce(nonce, 1);
        Packet::lisp_data(outer_src, outer_dst, lisp_repr, inner)
    }

    fn send_encap(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        inner: Packet,
        outer_src: Ipv4Address,
        outer_dst: Ipv4Address,
    ) {
        let pkt = self.encap(ctx, inner, outer_src, outer_dst);
        ctx.send(WAN_PORT, pkt);
    }

    /// ITR path: a site packet toward an EID that needs a tunnel.
    fn handle_eid_egress(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        pkt: Packet,
        src_eid: Ipv4Address,
        dst_eid: Ipv4Address,
    ) {
        // PCE flow table first (exact flow match, independent tunnels).
        if let Some(flow) = self.flows.get(&(src_eid, dst_eid)).copied() {
            self.send_encap(ctx, pkt, flow.rloc_s, flow.rloc_d);
            return;
        }
        // Prefix map-cache.
        let now = ctx.now();
        // Only the RLOC leaves the borrow: a hit copies four bytes, not
        // the record and its locator `Vec`.
        let hit = self.cache.lookup(dst_eid, now);
        if let Some(rloc) = hit.and_then(|r| r.best_locator()).map(|l| l.rloc) {
            self.send_encap(ctx, pkt, self.cfg.rloc, rloc);
            return;
        }
        // Miss.
        self.stats.miss_events += 1;
        // Negative cache: a destination that recently failed to resolve
        // is dropped without signalling until its entry ages out.
        if self.cfg.defense.negative_ttl.is_some() {
            match self.neg_cache.get(&dst_eid) {
                Some(until) if now < *until => {
                    self.stats.neg_cache_drops += 1;
                    return;
                }
                Some(_) => {
                    self.neg_cache.remove(&dst_eid);
                }
                None => {}
            }
        }
        self.apply_miss_policy(ctx, pkt, dst_eid);
        self.maybe_request_mapping(ctx, src_eid, dst_eid);
    }

    fn apply_miss_policy(&mut self, ctx: &mut Ctx<'_, Packet>, pkt: Packet, dst_eid: Ipv4Address) {
        match self.cfg.miss_policy {
            MissPolicy::Drop => {
                self.stats.miss_drops += 1;
                ctx.trace(format_args!(
                    "ITR {} dropped packet to {} (no mapping)",
                    self.cfg.rloc, dst_eid
                ));
            }
            MissPolicy::Queue { max_packets } => {
                let q = self.pending.entry(dst_eid).or_default();
                if q.len() >= max_packets {
                    self.stats.queue_overflow_drops += 1;
                } else {
                    q.push_back((pkt, ctx.now()));
                    self.stats.queued += 1;
                }
            }
            MissPolicy::DataOverCp { .. } => {
                // Buffered unbounded; released onto the slow path when the
                // mapping arrives (flush applies the extra latency).
                self.pending
                    .entry(dst_eid)
                    .or_default()
                    .push_back((pkt, ctx.now()));
                self.stats.queued += 1;
            }
        }
    }

    /// Resolve a rotation index to a resolver address: 0 is the mode's
    /// primary, `i > 0` is `map_resolver_replicas[i-1]`.
    fn resolver_addr(&self, idx: usize, primary: Ipv4Address) -> Ipv4Address {
        if idx == 0 {
            primary
        } else {
            self.cfg
                .map_resolver_replicas
                .get(idx - 1)
                .copied()
                .unwrap_or(primary)
        }
    }

    /// The wait after transmission `k` (1-indexed): `base × mult^(k-1)`,
    /// capped per step. A multiplier of 1 short-circuits to the fixed
    /// interval, so default configurations schedule bit-identically to
    /// the pre-backoff engine.
    fn retransmit_delay(&self, transmission: u32) -> Ns {
        let base = self.cfg.request_retransmit;
        if self.cfg.request_backoff_multiplier <= 1 {
            return base;
        }
        let mut delay = base;
        for _ in 1..transmission {
            delay = Ns(delay
                .0
                .saturating_mul(u64::from(self.cfg.request_backoff_multiplier)))
            .min(self.cfg.request_backoff_cap);
        }
        delay
    }

    /// Transmit a Map-Request for `eid` as transmission number `tries`
    /// of the given in-flight record and arm the matching retry timer.
    fn send_map_request(&mut self, ctx: &mut Ctx<'_, Packet>, eid: Ipv4Address, inf: InFlight) {
        let CpMode::Pull {
            map_resolver: Some(primary),
        } = self.cfg.mode
        else {
            return;
        };
        let target = self.resolver_addr(inf.resolver_idx, primary);
        let req = MapRequest {
            nonce: inf.nonce,
            source_eid: inf.source_eid,
            target_eid: eid,
            itr_rloc: self.cfg.rloc,
            hop_count: 32,
        };
        let pkt = self.stack.ctl(
            ports::LISP_CONTROL,
            target,
            ports::LISP_CONTROL,
            CtlMsg::Request(req),
        );
        ctx.send(WAN_PORT, pkt);
        ctx.set_timer(
            self.retransmit_delay(inf.tries),
            TOKEN_RETRY_BASE | u64::from(eid.to_u32()),
        );
    }

    fn maybe_request_mapping(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        src_eid: Ipv4Address,
        dst_eid: Ipv4Address,
    ) {
        let CpMode::Pull {
            map_resolver: Some(_),
        } = self.cfg.mode
        else {
            return;
        };
        if self.in_flight.contains_key(&dst_eid) {
            return;
        }
        // Per-source rate limit: one site host may only trigger so many
        // resolutions per window (retries are paced separately).
        if let Some(rate) = self.cfg.defense.source_rate {
            let now = ctx.now();
            let w = self.req_windows.entry(src_eid).or_insert((now, 0));
            if now.saturating_sub(w.0) >= rate.window {
                *w = (now, 0);
            }
            if w.1 >= rate.max_requests {
                self.stats.rate_limited_requests += 1;
                return;
            }
            w.1 += 1;
        }
        let nonce = Self::next_nonce(ctx);
        let inf = InFlight {
            nonce,
            tries: 1,
            source_eid: src_eid,
            resolver_idx: self.resolver_cursor,
            resolvers_tried: 1,
        };
        self.in_flight.insert(dst_eid, inf);
        self.stats.map_requests_sent += 1;
        ctx.trace(format_args!(
            "ITR {} map-request for {}",
            self.cfg.rloc, dst_eid
        ));
        self.send_map_request(ctx, dst_eid, inf);
    }

    /// Defense filter for incoming Map-Reply records. Nonce/origin
    /// verification drops any record that does not answer an outstanding
    /// request with the matching nonce (the CachePoison vector). The
    /// prefix-scope limit contains Overclaim: an over-broad record is
    /// clamped to the allowed scope around the EID it resolves — the
    /// attacker site stays reachable, but its claim over everyone else's
    /// space is never installed — and rejected when it answers no
    /// outstanding request at all. Both default to off.
    fn vet_reply_record(&self, mut record: MapRecord, nonce: u64) -> Option<MapRecord> {
        let prefix = Prefix::new(record.eid_prefix, record.prefix_len);
        if self.cfg.defense.verify_replies
            && !self
                .in_flight
                .iter()
                .any(|(eid, inf)| inf.nonce == nonce && prefix.contains(*eid))
        {
            return None;
        }
        if let Some(limit) = self.cfg.defense.reply_scope_limit {
            if record.prefix_len < limit {
                let target = self.in_flight.iter().find_map(|(eid, inf)| {
                    (inf.nonce == nonce && prefix.contains(*eid)).then_some(*eid)
                })?;
                let clamped = Prefix::new(target, limit);
                record.eid_prefix = clamped.addr();
                record.prefix_len = limit;
            }
        }
        Some(record)
    }

    /// Install a record and flush any packets waiting on it.
    fn install_record(&mut self, ctx: &mut Ctx<'_, Packet>, record: MapRecord, now: Ns) {
        let prefix = Prefix::new(record.eid_prefix, record.prefix_len);
        // The mapping is resolved for every covered EID: stop retrying.
        let resolved: Vec<Ipv4Address> = self
            .in_flight
            .keys()
            .copied()
            .filter(|eid| prefix.contains(*eid))
            .collect();
        for eid in resolved {
            self.in_flight.remove(&eid);
        }
        let covered: Vec<Ipv4Address> = self
            .pending
            .keys()
            .copied()
            .filter(|eid| prefix.contains(*eid))
            .collect();
        let best = record.best_locator().map(|l| l.rloc);
        self.cache.insert(record, now);
        for eid in covered {
            let Some(rloc) = best else { continue };
            let Some(q) = self.pending.remove(&eid) else {
                continue;
            };
            for (pkt, enqueued) in q {
                self.queue_delays.push(now.saturating_sub(enqueued));
                let tunneled = self.encap(ctx, pkt, self.cfg.rloc, rloc);
                match self.cfg.miss_policy {
                    // The packet rode the control plane: it reaches the
                    // WAN after the CP's extra latency.
                    MissPolicy::DataOverCp { extra_latency } => {
                        ctx.send_after(extra_latency, WAN_PORT, tunneled)
                    }
                    _ => {
                        ctx.send(WAN_PORT, tunneled);
                    }
                }
            }
        }
    }

    /// Install a PCE flow mapping (push or reverse sync) and flush.
    fn install_flow(&mut self, ctx: &mut Ctx<'_, Packet>, flow: FlowMapping) {
        self.flows.insert((flow.source_eid, flow.dest_eid), flow);
        self.stats.flow_installs += 1;
        ctx.trace(format_args!(
            "xTR {} installed flow {}->{} via ({} -> {})",
            self.cfg.rloc, flow.source_eid, flow.dest_eid, flow.rloc_s, flow.rloc_d
        ));
        let now = ctx.now();
        if let Some(q) = self.pending.remove(&flow.dest_eid) {
            for (pkt, enqueued) in q {
                self.queue_delays.push(now.saturating_sub(enqueued));
                self.send_encap(ctx, pkt, flow.rloc_s, flow.rloc_d);
            }
        }
    }

    /// ETR path: decapsulate a LISP data packet (a structural move: the
    /// inner packet is lifted out of the tunnel, never re-parsed).
    fn handle_decap(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        outer_src: Ipv4Address,
        outer_dst: Ipv4Address,
        inner: Packet,
    ) {
        let inner_src = inner.src();
        let inner_dst = inner.dst();
        ctx.trace(format_args!(
            "ETR {} decap {} -> {} (outer {} -> {})",
            self.cfg.rloc, inner_src, inner_dst, outer_src, outer_dst
        ));

        // ETR reverse-mapping duties on the first packet of a flow.
        if self.seen_wan_flows.insert((inner_src, inner_dst)) {
            match self.cfg.mode {
                CpMode::Pull { .. } => {
                    // Vanilla LISP: glean "inner_src is reachable at
                    // outer_src" so return traffic avoids a resolution.
                    let rec = MapRecord::host(inner_src, outer_src, GLEAN_TTL_MINUTES);
                    let now = ctx.now();
                    self.install_record(ctx, rec, now);
                    self.stats.gleaned += 1;
                }
                CpMode::Pce => {
                    // The paper, after step 8: install the return mapping,
                    // multicast it to the peer xTRs, update the PCE DB.
                    let reverse = FlowMapping {
                        source_eid: inner_dst,
                        dest_eid: inner_src,
                        rloc_s: outer_dst,
                        rloc_d: outer_src,
                        ttl_minutes: self.cfg.reply_ttl_minutes,
                    };
                    self.install_flow(ctx, reverse);
                    let msg = PceFlowMsg {
                        kind: PceKind::ReverseSync,
                        mapping: reverse,
                    };
                    let peers: Vec<Ipv4Address> = self.cfg.reverse_sync_peers.clone();
                    for peer in peers {
                        if peer == self.cfg.rloc {
                            continue;
                        }
                        let port = self.control_port_for(peer);
                        let pkt = self.stack.pce(
                            ports::ETR_SYNC,
                            peer,
                            ports::ETR_SYNC,
                            PceMsg::Flow(msg),
                        );
                        ctx.send(port, pkt);
                        self.stats.reverse_syncs_sent += 1;
                    }
                    if let Some(pced) = self.cfg.pced_addr {
                        let port = self.control_port_for(pced);
                        let pkt = self.stack.pce(
                            ports::ETR_SYNC,
                            pced,
                            ports::ETR_SYNC,
                            PceMsg::Flow(msg),
                        );
                        ctx.send(port, pkt);
                        self.stats.reverse_syncs_sent += 1;
                    }
                    ctx.trace(format_args!(
                        "ETR {} reverse-sync for flow {} -> {}",
                        self.cfg.rloc, inner_dst, inner_src
                    ));
                }
                _ => {}
            }
        }

        if self.in_site(inner_dst) {
            ctx.send(SITE_PORT, inner);
        } else {
            self.stats.malformed += 1;
        }
    }

    /// Handle a LISP control message arriving on UDP 4342.
    fn handle_control(&mut self, ctx: &mut Ctx<'_, Packet>, src: Ipv4Address, msg: CtlMsg) {
        match msg {
            CtlMsg::Request(req) => {
                // ETR authority role: answer for our site prefix.
                let prefix = self.cfg.site_prefix;
                if !prefix.contains(req.target_eid) {
                    return;
                }
                // Overclaim attack: a *legitimate* ETR answering with a
                // too-broad prefix pointing at its own locators, so the
                // requester's LPM cache hijacks unrelated destinations.
                let (eid_prefix, prefix_len) = if let Some(oc) = self.cfg.overclaim {
                    (oc.addr(), oc.len())
                } else if self.cfg.reply_host_granularity {
                    (req.target_eid, 32)
                } else {
                    (prefix.addr(), prefix.len())
                };
                let record = MapRecord {
                    eid_prefix,
                    prefix_len,
                    ttl_minutes: self.cfg.reply_ttl_minutes,
                    locators: vec![Locator::new(self.cfg.rloc, 1, 100)],
                };
                let reply = MapReply {
                    nonce: req.nonce,
                    records: vec![record],
                };
                self.stats.map_requests_answered += 1;
                ctx.trace(format_args!(
                    "ETR {} map-reply for {} to {}",
                    self.cfg.rloc, req.target_eid, req.itr_rloc
                ));
                let pkt = self.stack.ctl(
                    ports::LISP_CONTROL,
                    req.itr_rloc,
                    ports::LISP_CONTROL,
                    CtlMsg::Reply(reply),
                );
                ctx.send(WAN_PORT, pkt);
            }
            CtlMsg::Reply(reply) => {
                self.stats.map_replies_received += 1;
                ctx.trace(format_args!(
                    "ITR {} map-reply received from {}",
                    self.cfg.rloc, src
                ));
                let now = ctx.now();
                for record in reply.records {
                    match self.vet_reply_record(record, reply.nonce) {
                        Some(rec) => self.install_record(ctx, rec, now),
                        None => self.stats.replies_rejected += 1,
                    }
                }
            }
            CtlMsg::DbPush(push) => {
                let now = ctx.now();
                self.stats.db_records_installed += push.records.len() as u64;
                // The records are shared with every other subscriber's
                // copy of this chunk: clone each one as it is installed.
                for record in push.records.iter() {
                    self.install_record(ctx, record.clone(), now);
                }
            }
            CtlMsg::Probe(probe) if !probe.ack => {
                let ack = RlocProbe {
                    nonce: probe.nonce,
                    origin: self.cfg.rloc,
                    ack: true,
                };
                let port = self.control_port_for(probe.origin);
                let pkt = self.stack.ctl(
                    ports::LISP_CONTROL,
                    probe.origin,
                    ports::LISP_CONTROL,
                    CtlMsg::Probe(ack),
                );
                ctx.send(port, pkt);
                self.stats.probes_answered += 1;
            }
            CtlMsg::Probe(probe) => {
                if self.probe_outstanding.get(&probe.origin) == Some(&probe.nonce) {
                    self.probe_outstanding.remove(&probe.origin);
                    self.stats.probe_acks_received += 1;
                }
            }
            CtlMsg::Cons(_) => self.stats.malformed += 1,
        }
    }

    /// Every remote RLOC the xTR's mapping state currently references
    /// (map-cache locator sets plus PCE flow destinations), sorted for
    /// deterministic probe order.
    fn referenced_rlocs(&self) -> Vec<Ipv4Address> {
        let mut set: BTreeSet<Ipv4Address> = BTreeSet::new();
        for (_, entry) in self.cache.iter() {
            for l in &entry.record.locators {
                set.insert(l.rloc);
            }
        }
        for flow in self.flows.values() {
            set.insert(flow.rloc_d);
        }
        set.remove(&self.cfg.rloc);
        set.into_iter().collect()
    }

    /// One RLOC-probing round: probe every referenced locator and arm
    /// the timeout check.
    fn run_probe_round(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let Some(probe_cfg) = self.cfg.rloc_probing else {
            return;
        };
        let targets = self.referenced_rlocs();
        for rloc in targets {
            let nonce = Self::next_nonce(ctx);
            self.probe_outstanding.insert(rloc, nonce);
            let probe = RlocProbe {
                nonce,
                origin: self.cfg.rloc,
                ack: false,
            };
            let port = self.control_port_for(rloc);
            let pkt = self.stack.ctl(
                ports::LISP_CONTROL,
                rloc,
                ports::LISP_CONTROL,
                CtlMsg::Probe(probe),
            );
            ctx.send(port, pkt);
            self.stats.probes_sent += 1;
        }
        if !self.probe_outstanding.is_empty() {
            ctx.set_timer(probe_cfg.timeout, self.probe_token(TOKEN_PROBE_CHECK));
        }
        self.arm_probe_round(ctx);
    }

    /// `kind` (a probe round or check) stamped with the current probe
    /// generation.
    fn probe_token(&self, kind: u64) -> u64 {
        kind | u64::from(self.probe_gen)
    }

    /// Arm the next probe round of the current generation, if probing
    /// is on.
    fn arm_probe_round(&self, ctx: &mut Ctx<'_, Packet>) {
        if let Some(probe_cfg) = self.cfg.rloc_probing {
            ctx.set_timer(probe_cfg.interval, self.probe_token(TOKEN_PROBE_ROUND));
        }
    }

    /// Probe-timeout check: every probe still unanswered declares its
    /// locator unreachable and invalidates the state referencing it.
    fn check_probe_timeouts(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let dead: Vec<Ipv4Address> = self.probe_outstanding.keys().copied().collect();
        self.probe_outstanding.clear();
        for rloc in dead {
            self.stats.probe_timeouts += 1;
            let removed = self.cache.invalidate_rloc(rloc);
            self.stats.invalidated_cache_entries += removed as u64;
            let dead_flows: Vec<(Ipv4Address, Ipv4Address)> = self
                .flows
                .iter()
                .filter(|(_, f)| f.rloc_d == rloc)
                .map(|(k, _)| *k)
                .collect();
            for key in &dead_flows {
                self.flows.remove(key);
            }
            ctx.trace(format_args!(
                "xTR {} declares RLOC {} unreachable ({} cache entries, {} flows invalidated)",
                self.cfg.rloc,
                rloc,
                removed,
                dead_flows.len()
            ));
        }
    }

    /// Handle a PCE flow message (push/withdraw on `PCE_MAP`, reverse sync
    /// on `ETR_SYNC`).
    fn handle_pce_flow(&mut self, ctx: &mut Ctx<'_, Packet>, msg: PceMsg) {
        let PceMsg::Flow(msg) = msg else {
            self.stats.malformed += 1;
            return;
        };
        match msg.kind {
            PceKind::MappingPush | PceKind::ReverseSync => self.install_flow(ctx, msg.mapping),
            PceKind::MappingWithdraw => {
                self.flows
                    .remove(&(msg.mapping.source_eid, msg.mapping.dest_eid));
            }
            PceKind::DnsMapping => self.stats.malformed += 1,
        }
    }
}

impl Node<Packet> for Xtr {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.arm_probe_round(ctx);
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_, Packet>) {
        // State-loss policy (DESIGN.md §13): everything learned at
        // runtime — map-cache, PCE flow table, buffered packets,
        // in-flight resolutions, gleaned/negative entries, probe
        // bookkeeping — dies with the process. Static configuration
        // (`cfg`) and already-recorded measurements (stats, queue
        // delays) survive: they model the operator's monitoring box,
        // not the router.
        self.cache = MapCache::from_spec(self.cfg.cache);
        self.flows.clear();
        self.pending.clear();
        self.in_flight.clear();
        self.neg_cache.clear();
        self.req_windows.clear();
        self.probe_outstanding.clear();
        self.probe_gen = self.probe_gen.wrapping_add(1);
        self.seen_wan_flows.clear();
        self.resolver_cursor = 0;
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Packet>) {
        // The engine dropped the timers that fell due while down, so
        // the probe round may have been lost: restart the periodic
        // probe machinery exactly as a fresh boot would. A round or
        // check armed before the crash and due after the restart still
        // fires, but carries the old generation and is ignored.
        // Registrations are provisioned state on the mapping side (the
        // site's entry in the mapping database), so nothing needs
        // re-announcing here.
        self.arm_probe_round(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, pkt: Packet) {
        if port == SITE_PORT {
            let src = pkt.src();
            let dst = pkt.dst();
            // Control messages from inside the domain (PCE pushes, peer
            // ETR syncs) addressed to this router.
            if dst == self.cfg.rloc {
                match pkt {
                    Packet::Pce { ports: p, msg, .. }
                        if p.dst == ports::PCE_MAP || p.dst == ports::ETR_SYNC =>
                    {
                        self.handle_pce_flow(ctx, msg);
                    }
                    Packet::LispCtl { ports: p, msg, .. } if p.dst == ports::LISP_CONTROL => {
                        self.handle_control(ctx, src, msg);
                    }
                    _ => {}
                }
                return;
            }
            if self.in_site(dst) {
                // Intra-site traffic hairpins back (should be rare).
                ctx.send(SITE_PORT, pkt);
                return;
            }
            if self.in_eid_space(dst) {
                self.handle_eid_egress(ctx, pkt, src, dst);
            } else {
                // RLOC-space destination (DNS, PCE, control traffic):
                // globally routable, no tunnel.
                self.stats.plain_to_wan += 1;
                ctx.send(WAN_PORT, pkt);
            }
            return;
        }

        // WAN side.
        let src = pkt.src();
        let dst = pkt.dst();
        match pkt {
            Packet::LispData { inner, .. } => self.handle_decap(ctx, src, dst, *inner),
            Packet::LispCtl { ports: p, msg, .. }
                if p.dst == ports::LISP_CONTROL && dst == self.cfg.rloc =>
            {
                self.handle_control(ctx, src, msg)
            }
            Packet::Pce { ports: p, msg, .. }
                if (p.dst == ports::PCE_MAP || p.dst == ports::ETR_SYNC)
                    && dst == self.cfg.rloc =>
            {
                self.handle_pce_flow(ctx, msg)
            }
            other => {
                // Plain packet transiting into the site (RLOC-space
                // senders talking to site infrastructure).
                if self.in_site(dst) || self.in_internal_plain(dst) {
                    ctx.send(SITE_PORT, other);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        let kind = token & !PROBE_GEN_MASK;
        if kind == TOKEN_PROBE_ROUND || kind == TOKEN_PROBE_CHECK {
            if token != self.probe_token(kind) {
                return; // armed before a crash
            }
            if kind == TOKEN_PROBE_ROUND {
                self.run_probe_round(ctx);
            } else {
                self.check_probe_timeouts(ctx);
            }
            return;
        }
        if token & TOKEN_RETRY_BASE != 0 {
            let eid = Ipv4Address::from_u32((token & 0xffff_ffff) as u32);
            if !matches!(
                self.cfg.mode,
                CpMode::Pull {
                    map_resolver: Some(_)
                }
            ) {
                return;
            }
            let Some(inf) = self.in_flight.get(&eid).copied() else {
                return; // answered already
            };
            if inf.tries == 0 {
                // Cool-down expired: wake the dormant entry with a fresh
                // round (new nonce, try counter restarted) against the
                // preferred resolver.
                let fresh = InFlight {
                    nonce: Self::next_nonce(ctx),
                    tries: 1,
                    source_eid: inf.source_eid,
                    resolver_idx: self.resolver_cursor,
                    resolvers_tried: 1,
                };
                self.in_flight.insert(eid, fresh);
                self.stats.map_requests_sent += 1;
                ctx.trace(format_args!(
                    "ITR {} cool-down expired, re-requesting {}",
                    self.cfg.rloc, eid
                ));
                self.send_map_request(ctx, eid, fresh);
                return;
            }
            if inf.tries >= self.cfg.request_max_tries {
                let rotation = self.cfg.map_resolver_replicas.len() + 1;
                if (inf.resolvers_tried as usize) < rotation {
                    // Deterministic failover: rotate to the next resolver
                    // in `[primary, replicas...]` and restart the try
                    // counter against it.
                    let next_idx = (inf.resolver_idx + 1) % rotation;
                    self.resolver_cursor = next_idx;
                    self.stats.resolver_failovers += 1;
                    let moved = InFlight {
                        nonce: Self::next_nonce(ctx),
                        tries: 1,
                        source_eid: inf.source_eid,
                        resolver_idx: next_idx,
                        resolvers_tried: inf.resolvers_tried + 1,
                    };
                    self.in_flight.insert(eid, moved);
                    self.stats.map_request_retries += 1;
                    ctx.trace(format_args!(
                        "ITR {} fails over to resolver #{} for {}",
                        self.cfg.rloc, next_idx, eid
                    ));
                    self.send_map_request(ctx, eid, moved);
                    return;
                }
                if let Some(cooldown) = self.cfg.request_cooldown {
                    // Every resolver exhausted: park the resolution in a
                    // dormant entry instead of abandoning the EID forever.
                    // Queued packets are kept for the next round.
                    self.stats.request_rearms += 1;
                    self.in_flight.insert(eid, InFlight { tries: 0, ..inf });
                    ctx.set_timer(cooldown, TOKEN_RETRY_BASE | u64::from(eid.to_u32()));
                    return;
                }
                // Give up: drop any queued packets for this EID and
                // (when the defense is armed) remember the failure so
                // follow-up packets don't re-trigger the whole dance.
                self.in_flight.remove(&eid);
                if let Some(q) = self.pending.remove(&eid) {
                    self.stats.miss_drops += q.len() as u64;
                }
                if let Some(neg_ttl) = self.cfg.defense.negative_ttl {
                    self.neg_cache.insert(eid, ctx.now() + neg_ttl);
                }
                return;
            }
            let again = InFlight {
                tries: inf.tries + 1,
                ..inf
            };
            self.in_flight.insert(eid, again);
            self.stats.map_request_retries += 1;
            self.send_map_request(ctx, eid, again);
        }
    }

    fn counters(&self, out: &mut Counters) {
        let s = &self.stats;
        out.add("xtr.miss_events", s.miss_events);
        out.add("xtr.miss_drops", s.miss_drops);
        out.add("xtr.queue_overflow_drops", s.queue_overflow_drops);
        out.add("xtr.queued", s.queued);
        out.add("xtr.gleaned", s.gleaned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lispwire::lispctl::DbPush;
    use netsim::{LinkCfg, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn eid_space() -> PrefixSet {
        PrefixSet::new(vec![Prefix::new(a([100, 0, 0, 0]), 6)]) // 100..103
    }

    /// A site host: sends prebuilt packets and records received ones.
    type SiteHost = netsim::testkit::Tap<Packet>;

    /// A stub map-server: answers any Map-Request with a fixed locator
    /// after a configurable delay.
    struct StubMapServer {
        stack: IpStack,
        rloc_for_everything: Ipv4Address,
        delay: Ns,
        pub requests_seen: u64,
    }
    impl Node<Packet> for StubMapServer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
            let Packet::LispCtl {
                msg: CtlMsg::Request(req),
                ..
            } = pkt
            else {
                return;
            };
            self.requests_seen += 1;
            let reply = MapReply {
                nonce: req.nonce,
                records: vec![MapRecord {
                    eid_prefix: Ipv4Address::from_u32(req.target_eid.to_u32() & 0xff00_0000),
                    prefix_len: 8,
                    ttl_minutes: 60,
                    locators: vec![Locator::new(self.rloc_for_everything, 1, 100)],
                }],
            };
            let pkt = self.stack.ctl(
                ports::LISP_CONTROL,
                req.itr_rloc,
                ports::LISP_CONTROL,
                CtlMsg::Reply(reply),
            );
            ctx.send_after(self.delay, 0, pkt);
        }
    }

    /// Two sites S (100/8 behind xtr_s @ 10.0.0.1) and D (101/8 behind
    /// xtr_d @ 12.0.0.1) joined by a core router; a stub map-server at
    /// 8.0.0.10.
    struct World {
        sim: Sim<Packet>,
        host_s: netsim::NodeId,
        host_d: netsim::NodeId,
        xtr_s: netsim::NodeId,
        xtr_d: netsim::NodeId,
        #[allow(dead_code)]
        ms: netsim::NodeId,
    }

    fn build_world(
        mode_s: CpMode,
        mode_d: CpMode,
        miss_policy: MissPolicy,
        resolver_delay: Ns,
    ) -> World {
        use inet::Router;
        let mut sim: Sim<Packet> = Sim::new(42);
        sim.trace.enable();

        let s_rloc = a([10, 0, 0, 1]);
        let d_rloc = a([12, 0, 0, 1]);
        let ms_addr = a([8, 0, 0, 10]);

        let mut cfg_s = XtrConfig::new(
            s_rloc,
            Prefix::new(a([100, 0, 0, 0]), 8),
            eid_space(),
            mode_s,
        );
        cfg_s.miss_policy = miss_policy;
        let mut cfg_d = XtrConfig::new(
            d_rloc,
            Prefix::new(a([101, 0, 0, 0]), 8),
            eid_space(),
            mode_d,
        );
        cfg_d.miss_policy = miss_policy;

        let host_s = sim.add_node("host-s", Box::new(SiteHost::sink()));
        let host_d = sim.add_node("host-d", Box::new(SiteHost::sink()));
        let xtr_s = sim.add_node("xtr-s", Box::new(Xtr::new(cfg_s)));
        let xtr_d = sim.add_node("xtr-d", Box::new(Xtr::new(cfg_d)));
        let core = sim.add_node("core", Box::new(Router::new()));
        let ms = sim.add_node(
            "map-server",
            Box::new(StubMapServer {
                stack: IpStack::new(ms_addr),
                rloc_for_everything: d_rloc,
                delay: resolver_delay,
                requests_seen: 0,
            }),
        );

        // Site links: host <-> xtr port 0.
        sim.connect(host_s, xtr_s, LinkCfg::lan());
        sim.connect(host_d, xtr_d, LinkCfg::lan());
        // WAN links: xtr port 1 <-> core router.
        let (_, c_s) = sim.connect(xtr_s, core, LinkCfg::wan(Ns::from_ms(30)));
        let (_, c_d) = sim.connect(xtr_d, core, LinkCfg::wan(Ns::from_ms(30)));
        let (_, c_ms) = sim.connect(ms, core, LinkCfg::wan(Ns::from_ms(10)));
        {
            let r = sim.node_mut::<Router>(core);
            r.add_route(Prefix::new(a([10, 0, 0, 0]), 8), c_s);
            r.add_route(Prefix::new(a([12, 0, 0, 0]), 8), c_d);
            r.add_route(Prefix::new(a([8, 0, 0, 0]), 8), c_ms);
        }
        World {
            sim,
            host_s,
            host_d,
            xtr_s,
            xtr_d,
            ms,
        }
    }

    fn data_packet(src: Ipv4Address, dst: Ipv4Address, tag: u8) -> Packet {
        IpStack::new(src).udp(7000, dst, 7001, vec![tag; 16])
    }

    fn udp_tag(pkt: &Packet) -> u8 {
        match pkt {
            Packet::Udp { payload, .. } => payload[0],
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pull_mode_first_packet_dropped_then_flow_works() {
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            MissPolicy::Drop,
            Ns::from_us(100),
        );
        let pkt1 = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        let pkt2 = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 2);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt1, pkt2];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        // Second packet 500 ms later: mapping resolved by then.
        w.sim.schedule_timer(w.host_s, Ns::from_ms(500), 1);
        w.sim.run();

        let xtr = w.sim.node_mut::<Xtr>(w.xtr_s);
        assert_eq!(xtr.stats.miss_drops, 1);
        assert_eq!(xtr.stats.encap, 1);
        assert_eq!(xtr.stats.map_requests_sent, 1);
        assert_eq!(xtr.stats.map_replies_received, 1);
        let received = &w.sim.node_ref::<SiteHost>(w.host_d).received;
        assert_eq!(received.len(), 1, "only the post-resolution packet arrives");
        assert_eq!(udp_tag(&received[0].1), 2);
    }

    #[test]
    fn queue_policy_delays_instead_of_dropping() {
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        let pkt1 = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt1];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        w.sim.run();

        let xtr = w.sim.node_mut::<Xtr>(w.xtr_s);
        assert_eq!(xtr.stats.miss_drops, 0);
        assert_eq!(xtr.stats.queued, 1);
        assert_eq!(xtr.queue_delays.len(), 1);
        // Queue delay ≈ map-request RTT: 2×(30+10) ms + processing.
        assert!(
            xtr.queue_delays[0] >= Ns::from_ms(80),
            "delay {}",
            xtr.queue_delays[0]
        );
        assert_eq!(w.sim.node_ref::<SiteHost>(w.host_d).received.len(), 1);
    }

    #[test]
    fn gleaning_avoids_reverse_resolution() {
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        let fwd = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        let rev = data_packet(a([101, 0, 0, 7]), a([100, 0, 0, 5]), 2);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![fwd];
        w.sim.node_mut::<SiteHost>(w.host_d).outbox = vec![rev];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        // Reverse traffic after the forward packet landed.
        w.sim.schedule_timer(w.host_d, Ns::from_secs(1), 0);
        w.sim.run();

        let xtr_d = w.sim.node_mut::<Xtr>(w.xtr_d);
        assert_eq!(xtr_d.stats.gleaned, 1);
        assert_eq!(
            xtr_d.stats.map_requests_sent, 0,
            "gleaned mapping, no pull needed"
        );
        assert_eq!(xtr_d.stats.encap, 1);
        assert_eq!(w.sim.node_ref::<SiteHost>(w.host_s).received.len(), 1);
    }

    #[test]
    fn pce_mode_pushed_flow_forwards_first_packet() {
        let mut w = build_world(CpMode::Pce, CpMode::Pce, MissPolicy::Drop, Ns::from_us(100));
        // Install the flow mapping before any data, as the PCE CP does.
        let flow = FlowMapping {
            source_eid: a([100, 0, 0, 5]),
            dest_eid: a([101, 0, 0, 7]),
            rloc_s: a([10, 0, 0, 1]),
            rloc_d: a([12, 0, 0, 1]),
            ttl_minutes: 30,
        };
        {
            let sim = &mut w.sim;
            let xtr = sim.node_mut::<Xtr>(w.xtr_s);
            xtr.flows.insert((flow.source_eid, flow.dest_eid), flow);
        }
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 9);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        w.sim.run();

        let xtr_s = w.sim.node_mut::<Xtr>(w.xtr_s);
        assert_eq!(xtr_s.stats.miss_events, 0);
        assert_eq!(xtr_s.stats.encap, 1);
        assert_eq!(w.sim.node_ref::<SiteHost>(w.host_d).received.len(), 1);
        // ETR installed the return flow and (having no peers configured)
        // sent no syncs but the flow table has the reverse entry.
        let xtr_d = w.sim.node_mut::<Xtr>(w.xtr_d);
        assert_eq!(xtr_d.stats.flow_installs, 1);
        assert!(xtr_d
            .flows
            .contains_key(&(a([101, 0, 0, 7]), a([100, 0, 0, 5]))));
    }

    #[test]
    fn pce_independent_one_way_tunnels() {
        // rloc_s differs from the ITR's own RLOC: the encapsulation source
        // must be the mapping's rloc_s, not the router address.
        let mut w = build_world(CpMode::Pce, CpMode::Pce, MissPolicy::Drop, Ns::from_us(100));
        let flow = FlowMapping {
            source_eid: a([100, 0, 0, 5]),
            dest_eid: a([101, 0, 0, 7]),
            rloc_s: a([11, 0, 0, 99]), // a *different* local RLOC
            rloc_d: a([12, 0, 0, 1]),
            ttl_minutes: 30,
        };
        w.sim
            .node_mut::<Xtr>(w.xtr_s)
            .flows
            .insert((flow.source_eid, flow.dest_eid), flow);
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 9);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        w.sim.run();

        assert!(
            w.sim.trace.first("(outer 11.0.0.99 -> 12.0.0.1)").is_some(),
            "the tunnel left with the mapping's rloc_s as its outer source"
        );
        // The ETR's gleaned return flow must target that source RLOC.
        let xtr_d = w.sim.node_mut::<Xtr>(w.xtr_d);
        let rev = xtr_d
            .flows
            .get(&(a([101, 0, 0, 7]), a([100, 0, 0, 5])))
            .unwrap();
        assert_eq!(rev.rloc_d, a([11, 0, 0, 99]));
    }

    #[test]
    fn plain_rloc_traffic_not_encapsulated() {
        let mut w = build_world(CpMode::Pce, CpMode::Pce, MissPolicy::Drop, Ns::from_us(100));
        // Site host talks to the map-server address (RLOC space).
        let pkt = data_packet(a([100, 0, 0, 5]), a([8, 0, 0, 10]), 3);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        w.sim.run();
        let xtr_s = w.sim.node_mut::<Xtr>(w.xtr_s);
        assert_eq!(xtr_s.stats.plain_to_wan, 1);
        assert_eq!(xtr_s.stats.encap, 0);
    }

    #[test]
    fn db_push_populates_cache() {
        let mut sim: Sim<Packet> = Sim::new(7);
        let push = DbPush {
            version: 1,
            chunk: 0,
            total_chunks: 1,
            records: Arc::from([MapRecord {
                eid_prefix: a([101, 0, 0, 0]),
                prefix_len: 8,
                ttl_minutes: 1440,
                locators: vec![Locator::new(a([12, 0, 0, 1]), 1, 100)],
            }]),
        };
        let pkt = IpStack::new(a([8, 0, 0, 10])).ctl(
            ports::LISP_CONTROL,
            a([10, 0, 0, 1]),
            ports::LISP_CONTROL,
            CtlMsg::DbPush(push),
        );
        let mut cfg = XtrConfig::new(
            a([10, 0, 0, 1]),
            Prefix::new(a([100, 0, 0, 0]), 8),
            eid_space(),
            CpMode::PushDb,
        );
        cfg.miss_policy = MissPolicy::Drop;
        let pusher = sim.add_node("pusher", Box::new(SiteHost::new(vec![pkt])));
        let xtr = sim.add_node("xtr", Box::new(Xtr::new(cfg)));
        let site = sim.add_node("site", Box::new(SiteHost::sink()));
        sim.connect(site, xtr, LinkCfg::lan()); // xtr port 0 = site
        sim.connect(xtr, pusher, LinkCfg::lan()); // xtr port 1 = wan
        sim.schedule_timer(pusher, Ns::ZERO, 0);
        sim.run();
        let x = sim.node_mut::<Xtr>(xtr);
        assert_eq!(x.stats.db_records_installed, 1);
        assert_eq!(x.cache.len(), 1);
    }

    #[test]
    fn probe_timeout_invalidates_dead_locator_state() {
        // Resolve a mapping, then kill the destination's WAN link: the
        // probing ITR must declare the locator dead and drop the cache
        // entry, so the next packet re-misses instead of black-holing.
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        let probe_cfg = RlocProbeCfg {
            interval: Ns::from_secs(1),
            timeout: Ns::from_ms(250),
        };
        w.sim.node_mut::<Xtr>(w.xtr_s).cfg.rloc_probing = Some(probe_cfg);
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        // Probe rounds at 1 s and 2 s answer (acks received); the D-side
        // WAN link (link index 3: host-s, host-d, xtr_s-core, xtr_d-core)
        // dies at 2.5 s, so the 3 s round times out at 3.25 s.
        w.sim.schedule_link_admin(Ns::from_ms(2500), 3, false);
        w.sim.run_until(Ns::from_secs(4));

        let xtr = w.sim.node_ref::<Xtr>(w.xtr_s);
        assert!(xtr.stats.probes_sent >= 3);
        assert!(xtr.stats.probe_acks_received >= 2, "{:?}", xtr.stats);
        assert_eq!(xtr.stats.probe_timeouts, 1, "{:?}", xtr.stats);
        assert_eq!(xtr.stats.invalidated_cache_entries, 1);
        assert_eq!(xtr.cache.len(), 0, "dead-locator entry must be gone");
        // The probe target answered the earlier rounds.
        let xtr_d = w.sim.node_ref::<Xtr>(w.xtr_d);
        assert!(xtr_d.stats.probes_answered >= 2);
    }

    #[test]
    fn short_crash_leaves_one_probe_chain() {
        // Probe every second; packets at 0 s and 1.5 s keep one locator
        // referenced. A crash at 1.2 s and restart at 1.3 s re-arm the
        // chain (rounds at 2.3, 3.3, 4.3, 5.3 s); the round armed before
        // the crash still falls due at 2 s and must not start a second
        // chain beside it.
        let run = |crash: bool| {
            let mut w = build_world(
                CpMode::Pull {
                    map_resolver: Some(a([8, 0, 0, 10])),
                },
                CpMode::Pull {
                    map_resolver: Some(a([8, 0, 0, 10])),
                },
                MissPolicy::Queue { max_packets: 8 },
                Ns::from_us(100),
            );
            w.sim.node_mut::<Xtr>(w.xtr_s).cfg.rloc_probing = Some(RlocProbeCfg {
                interval: Ns::from_secs(1),
                timeout: Ns::from_ms(250),
            });
            let pkt = |tag| data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), tag);
            w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt(1), pkt(2)];
            w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
            w.sim.schedule_timer(w.host_s, Ns::from_ms(1500), 1);
            if crash {
                w.sim.schedule_node_admin(Ns::from_ms(1200), w.xtr_s, false);
                w.sim.schedule_node_admin(Ns::from_ms(1300), w.xtr_s, true);
            }
            w.sim.run_until(Ns::from_ms(6100));
            w.sim.node_ref::<Xtr>(w.xtr_s).stats.clone()
        };
        let steady = run(false);
        assert_eq!(steady.probes_sent, 6, "rounds at 1..=6 s");
        let crashed = run(true);
        assert_eq!(crashed.probes_sent, 5, "round at 1 s, then 2.3..=5.3 s");
        assert_eq!(crashed.probe_timeouts, 0, "{crashed:?}");
    }

    #[test]
    fn retransmit_gives_up_after_max_tries() {
        // Map-resolver exists but is unreachable (no route to 9/8).
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([9, 9, 9, 9])),
            },
            CpMode::Pull { map_resolver: None },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        w.sim.run_until(Ns::from_secs(30));
        let xtr = w.sim.node_mut::<Xtr>(w.xtr_s);
        assert_eq!(xtr.stats.map_requests_sent, 1);
        assert_eq!(xtr.stats.map_request_retries, 2); // tries 2 and 3
        assert_eq!(xtr.stats.miss_drops, 1, "queued packet dropped on give-up");
        assert!(w.sim.node_ref::<SiteHost>(w.host_d).received.is_empty());
    }

    #[test]
    fn backoff_schedule_pinned() {
        let mut cfg = XtrConfig::new(
            a([10, 0, 0, 1]),
            Prefix::new(a([100, 0, 0, 0]), 8),
            eid_space(),
            CpMode::Pull { map_resolver: None },
        );
        // Defaults (multiplier 1): the fixed interval, regardless of cap.
        let xtr = Xtr::new(cfg.clone());
        for k in 1..6 {
            assert_eq!(xtr.retransmit_delay(k), Ns::from_secs(1));
        }
        // base 100ms × 3^(k-1), capped at 500ms.
        cfg.request_retransmit = Ns::from_ms(100);
        cfg.request_backoff_multiplier = 3;
        cfg.request_backoff_cap = Ns::from_ms(500);
        let xtr = Xtr::new(cfg.clone());
        let schedule: Vec<Ns> = (1..5).map(|k| xtr.retransmit_delay(k)).collect();
        assert_eq!(
            schedule,
            vec![
                Ns::from_ms(100),
                Ns::from_ms(300),
                Ns::from_ms(500),
                Ns::from_ms(500)
            ]
        );
        // Classic doubling under a roomy cap.
        cfg.request_retransmit = Ns::from_secs(1);
        cfg.request_backoff_multiplier = 2;
        cfg.request_backoff_cap = Ns::from_secs(30);
        let xtr = Xtr::new(cfg);
        let schedule: Vec<Ns> = (1..5).map(|k| xtr.retransmit_delay(k)).collect();
        assert_eq!(
            schedule,
            vec![
                Ns::from_secs(1),
                Ns::from_secs(2),
                Ns::from_secs(4),
                Ns::from_secs(8)
            ]
        );
    }

    #[test]
    fn backoff_stretches_retransmit_times() {
        // Unreachable resolver, doubling backoff: transmissions at 0 s,
        // 1 s, 3 s; give-up 4 s after the last.
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([9, 9, 9, 9])),
            },
            CpMode::Pull { map_resolver: None },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        w.sim
            .node_mut::<Xtr>(w.xtr_s)
            .cfg
            .request_backoff_multiplier = 2;
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        let checkpoints = [
            (Ns::from_ms(500), 0u64, 0u64),
            (Ns::from_ms(1500), 1, 0),
            (Ns::from_ms(2500), 1, 0),
            (Ns::from_ms(3500), 2, 0),
            (Ns::from_ms(6500), 2, 0),
            (Ns::from_ms(8000), 2, 1),
        ];
        for (until, retries, drops) in checkpoints {
            w.sim.run_until(until);
            let xtr = w.sim.node_ref::<Xtr>(w.xtr_s);
            assert_eq!(xtr.stats.map_request_retries, retries, "at {until}");
            assert_eq!(xtr.stats.miss_drops, drops, "at {until}");
        }
    }

    #[test]
    fn failover_rotates_to_replica_and_sticks() {
        // Primary resolver unreachable; the working stub at 8.0.0.10 is
        // configured as the single replica.
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([9, 9, 9, 9])),
            },
            CpMode::Pull { map_resolver: None },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        w.sim.node_mut::<Xtr>(w.xtr_s).cfg.map_resolver_replicas = vec![a([8, 0, 0, 10])];
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::ZERO, 0);
        w.sim.run_until(Ns::from_secs(10));

        let xtr = w.sim.node_ref::<Xtr>(w.xtr_s);
        assert_eq!(xtr.stats.map_requests_sent, 1);
        // Tries 2 and 3 against the primary, then the failover round.
        assert_eq!(xtr.stats.map_request_retries, 3);
        assert_eq!(xtr.stats.resolver_failovers, 1);
        assert_eq!(xtr.stats.map_replies_received, 1);
        assert_eq!(xtr.stats.miss_drops, 0);
        assert_eq!(
            xtr.resolver_cursor, 1,
            "sticky failover: new resolutions start at the replica"
        );
        let received = &w.sim.node_ref::<SiteHost>(w.host_d).received;
        assert_eq!(received.len(), 1, "queued packet flushed after failover");
    }

    /// Satellite regression: a flow whose packets all arrive during a
    /// resolver outage. Historically the give-up at `request_max_tries`
    /// dropped the queued packets and nothing ever retried — the flow
    /// was stuck at zero deliveries for the rest of the run even after
    /// the resolver came back. The cool-down re-arm keeps the queue and
    /// re-resolves.
    fn resolver_outage_run(cooldown: Option<Ns>) -> (usize, XtrStats) {
        let mut w = build_world(
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 10])),
            },
            CpMode::Pull { map_resolver: None },
            MissPolicy::Queue { max_packets: 8 },
            Ns::from_us(100),
        );
        w.sim.node_mut::<Xtr>(w.xtr_s).cfg.request_cooldown = cooldown;
        // The map-server is down from the start until t = 10 s.
        w.sim.set_node_up(w.ms, false);
        w.sim.schedule_node_admin(Ns::from_secs(10), w.ms, true);
        let pkt = data_packet(a([100, 0, 0, 5]), a([101, 0, 0, 7]), 1);
        w.sim.node_mut::<SiteHost>(w.host_s).outbox = vec![pkt];
        w.sim.schedule_timer(w.host_s, Ns::from_secs(1), 0);
        w.sim.run_until(Ns::from_secs(30));
        let stats = w.sim.node_ref::<Xtr>(w.xtr_s).stats.clone();
        (w.sim.node_ref::<SiteHost>(w.host_d).received.len(), stats)
    }

    #[test]
    fn give_up_without_cooldown_is_stuck_forever() {
        let (delivered, stats) = resolver_outage_run(None);
        assert_eq!(delivered, 0, "flow never recovers after the outage");
        assert_eq!(stats.miss_drops, 1);
        assert_eq!(stats.request_rearms, 0);
    }

    #[test]
    fn cooldown_rearm_recovers_after_resolver_restart() {
        let (delivered, stats) = resolver_outage_run(Some(Ns::from_secs(4)));
        assert_eq!(delivered, 1, "queued packet survives to the re-resolution");
        assert_eq!(stats.miss_drops, 0);
        assert!(stats.request_rearms >= 1, "{stats:?}");
        assert_eq!(stats.map_replies_received, 1);
    }
}
