//! The PCE node — the paper's contribution.
//!
//! A PCE is a *bump in the wire* on its domain's DNS path: **port 0 faces
//! the DNS server, port 1 faces the domain network**. Every packet is
//! forwarded transparently between the two ports, except:
//!
//! * **Step 1 (IPC)** — `IpcQueryNotice` messages from the local DNS
//!   server record which end-host (`E_S`) asked for which name, and the
//!   IRC engine's current ingress choice is noted for the reverse
//!   direction.
//! * **Step 6 (PCE_D role)** — a DNS *response* from the local server
//!   whose A answer falls in this domain's EID space is intercepted and
//!   re-sent as a [`PceMsg::DnsMapping`] on the special port `P`, addressed to
//!   the querying DNS server, carrying the original reply plus the
//!   precomputed mapping. The IRC engine runs "online … in background, so
//!   the mapping is always known aforehand" — the `precompute` knob
//!   models that claim (ablation A2 turns it off).
//! * **Steps 7a/7b (PCE_S role)** — a port-`P` packet passing toward the
//!   local DNS server is decapsulated: the original DNS reply continues
//!   unmodified to the server (7a), while the flow mapping
//!   `(E_S, E_D, RLOC_S, RLOC_D)` — with `RLOC_S` chosen by the IRC
//!   engine for the *inbound* traffic — is pushed to **all** local ITRs
//!   (7b).
//! * **After step 8** — `ETR_SYNC` messages from the domain's ETRs update
//!   the PCE database (two-way mapping completion).

use inet::stack::IpStack;
use inet::Prefix;
use ircte::{IrcEngine, Provider, SelectionPolicy};
use lispwire::dnswire::Name;
use lispwire::lispctl::{Locator, MapRecord};
use lispwire::packet::{Packet, PceMsg};
use lispwire::pcewire::{FlowMapping, PceFlowMsg, PceKind};
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, Node, Ns, PortId};
use std::collections::BTreeMap;

/// Static configuration of a PCE.
#[derive(Debug, Clone)]
pub struct PceConfig {
    /// The PCE's own address (RLOC space).
    pub addr: Ipv4Address,
    /// EID prefixes of the local domain (answers falling here trigger the
    /// step-6 interception).
    pub domain_eid_prefixes: Vec<Prefix>,
    /// All local ITR/xTR RLOCs: step-7b push targets.
    pub itr_rlocs: Vec<Ipv4Address>,
    /// The providers of this domain, driving the IRC engine.
    pub providers: Vec<Provider>,
    /// IRC selection policy.
    pub policy: SelectionPolicy,
    /// TTL stamped on issued mappings (minutes).
    pub mapping_ttl_minutes: u16,
    /// Whether the outbound mapping is precomputed (paper claim: yes).
    /// When `false`, every step-6 interception pays a further 2 ms of
    /// on-demand computation (ablation A2).
    pub precompute: bool,
    /// Push mappings to all ITRs (paper default) or only the first
    /// (ablation A1).
    pub push_to_all_itrs: bool,
    /// Warm-standby twin, if any: every flow decision inserted into the
    /// database is mirrored there as a [`PceKind::ReverseSync`] message,
    /// so [`Pce::take_over`] on the twin can re-push the full flow
    /// database after this PCE dies (replica failover, DESIGN.md §13).
    pub mirror_to: Option<Ipv4Address>,
}

impl PceConfig {
    /// A configuration with the paper's defaults.
    pub fn new(
        addr: Ipv4Address,
        domain_eid_prefixes: Vec<Prefix>,
        itr_rlocs: Vec<Ipv4Address>,
        providers: Vec<Provider>,
    ) -> Self {
        Self {
            addr,
            domain_eid_prefixes,
            itr_rlocs,
            providers,
            policy: SelectionPolicy::WeightedBalance,
            mapping_ttl_minutes: 60,
            precompute: true,
            push_to_all_itrs: true,
            mirror_to: None,
        }
    }
}

/// Public counters of a PCE.
#[derive(Debug, Default, Clone)]
pub struct PceStats {
    /// Packets transparently forwarded (both directions).
    pub forwarded: u64,
    /// IPC notices recorded.
    pub ipc_notices: u64,
    /// DNS replies intercepted and encapsulated (step 6).
    pub dns_intercepts: u64,
    /// Port-`P` packets decapsulated (step 7).
    pub p_decaps: u64,
    /// Flow-mapping pushes sent to ITRs (step 7b).
    pub pushes_sent: u64,
    /// Reverse syncs absorbed into the database.
    pub reverse_syncs_received: u64,
    /// Step-7 arrivals whose requester EID was unknown (no IPC notice).
    pub unknown_requester: u64,
    /// Provider reachability events processed (dynamics).
    pub provider_events: u64,
    /// Flows re-pathed onto a surviving provider after a failure.
    pub repaths: u64,
    /// Malformed messages seen.
    pub malformed: u64,
}

const DNS_PORT: PortId = 0;
const NET_PORT: PortId = 1;
/// Per-packet transparent-forwarding delay of the bump in the wire.
const FORWARD_DELAY: Ns = Ns::from_us(5);
/// Extra step-6 computation delay when the mapping is not precomputed.
const ON_DEMAND_DELAY: Ns = Ns::from_ms(2);
/// Rate estimate (capacity units) booked per admitted flow.
const FLOW_RATE_ESTIMATE: f64 = 1.0;

/// The PCE node (acts as `PCE_S` and `PCE_D` simultaneously).
pub struct Pce {
    /// Static configuration.
    pub cfg: PceConfig,
    stack: IpStack,
    /// The online IRC engine.
    pub irc: IrcEngine,
    /// qname → requesting end-host, learned over IPC (step 1).
    pending_requesters: BTreeMap<Name, Ipv4Address>,
    /// The PCE mapping database: flow → mapping (updated by step 7b
    /// decisions and ETR reverse syncs).
    pub db: BTreeMap<(Ipv4Address, Ipv4Address), FlowMapping>,
    /// Counters.
    pub stats: PceStats,
}

impl Pce {
    /// Build a PCE from its configuration.
    pub fn new(cfg: PceConfig) -> Self {
        let irc = IrcEngine::new(cfg.providers.clone(), cfg.policy);
        Self {
            stack: IpStack::new(cfg.addr),
            irc,
            pending_requesters: BTreeMap::new(),
            db: BTreeMap::new(),
            stats: PceStats::default(),
            cfg,
        }
    }

    /// This PCE's address.
    pub fn addr(&self) -> Ipv4Address {
        self.cfg.addr
    }

    fn in_domain_eids(&self, addr: Ipv4Address) -> bool {
        self.cfg
            .domain_eid_prefixes
            .iter()
            .any(|p| p.contains(addr))
    }

    /// Compose the mapping record for a local EID: the full locator set
    /// with the IRC engine's current choice at priority 1, every
    /// locator at weight 1.
    fn mapping_for(&mut self, eid: Ipv4Address) -> MapRecord {
        let chosen = self.irc.peek_choice().map(|(p, _)| p);
        let locators: Vec<Locator> = self
            .irc
            .providers()
            .iter()
            .enumerate()
            .map(|(i, p)| Locator {
                rloc: p.rloc,
                priority: if Some(i) == chosen { 1 } else { 2 },
                weight: 1,
                reachable: p.up,
            })
            .collect();
        MapRecord {
            eid_prefix: eid,
            prefix_len: 32,
            ttl_minutes: self.cfg.mapping_ttl_minutes,
            locators,
        }
    }

    /// Step 6: intercept a DNS reply leaving the domain's server. The
    /// original reply *packet* is carried inside the step-6 message as a
    /// typed value (no re-serialization anywhere on the path).
    fn intercept_dns_reply(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        original: Packet,
        reply_dst: Ipv4Address,
        answer_eid: Ipv4Address,
    ) {
        self.stats.dns_intercepts += 1;
        // Book the inbound flow on the chosen provider.
        let _ = self
            .irc
            .admit_flow((reply_dst, answer_eid), FLOW_RATE_ESTIMATE);
        let mapping = self.mapping_for(answer_eid);
        ctx.trace(format_args!(
            "step6: PCE_D {} encapsulates DNS reply for {} with mapping (best rloc {})",
            self.cfg.addr,
            answer_eid,
            mapping
                .best_locator()
                .map(|l| l.rloc.to_string())
                .unwrap_or_default()
        ));
        let msg = PceMsg::DnsMapping {
            pce_d: self.cfg.addr,
            mapping,
            dns_reply: Box::new(original),
        };
        let pkt = self
            .stack
            .pce(ports::PCE_MAP, reply_dst, ports::PCE_MAP, msg);
        let delay = if self.cfg.precompute {
            FORWARD_DELAY
        } else {
            FORWARD_DELAY.saturating_add(ON_DEMAND_DELAY)
        };
        ctx.send_after(delay, NET_PORT, pkt);
    }

    /// Steps 7a + 7b: a port-`P` packet arrived for our DNS server.
    fn handle_port_p(&mut self, ctx: &mut Ctx<'_, Packet>, pkt: Packet) {
        let Packet::Pce {
            msg: PceMsg::DnsMapping {
                mapping, dns_reply, ..
            },
            ..
        } = pkt
        else {
            self.stats.malformed += 1;
            return;
        };
        self.stats.p_decaps += 1;
        // 7a: forward the original DNS answer to the server, unmodified
        // (the typed reply packet is lifted out of the encapsulation).
        ctx.trace(format_args!(
            "step7a: PCE_S {} forwards DNS answer to local server",
            self.cfg.addr
        ));
        let qname = parse_qname(&dns_reply);
        ctx.send_after(FORWARD_DELAY, DNS_PORT, *dns_reply);

        // 7b: install the two-one-way-tunnel mapping at every ITR.
        let dest_eid = mapping.eid_prefix;
        let Some(rloc_d) = mapping.best_locator().map(|l| l.rloc) else {
            self.stats.malformed += 1;
            return;
        };
        // Find E_S from the IPC notice (match on the reply's qname).
        let Some(source_eid) = qname.and_then(|q| self.pending_requesters.remove(&q)) else {
            self.stats.unknown_requester += 1;
            return;
        };
        // Step 1's ingress choice for the reverse (inbound) direction.
        let Some((_, rloc_s)) = self
            .irc
            .admit_flow((source_eid, dest_eid), FLOW_RATE_ESTIMATE)
        else {
            return;
        };
        let flow = FlowMapping {
            source_eid,
            dest_eid,
            rloc_s,
            rloc_d,
            ttl_minutes: self.cfg.mapping_ttl_minutes,
        };
        self.db.insert((source_eid, dest_eid), flow);
        self.mirror_flow(ctx, flow);
        self.push_flow(ctx, flow);
        ctx.trace(format_args!(
            "step7b: PCE_S {} pushed ({} -> {}) via (RLOC_S {}, RLOC_D {}) to {} ITRs",
            self.cfg.addr,
            source_eid,
            dest_eid,
            rloc_s,
            rloc_d,
            if self.cfg.push_to_all_itrs {
                self.cfg.itr_rlocs.len()
            } else {
                1
            }
        ));
    }

    /// Mirror one database insert to the warm-standby twin (as the same
    /// [`PceKind::ReverseSync`] kind the ETRs use, which the twin's
    /// handler absorbs silently into its database).
    fn mirror_flow(&mut self, ctx: &mut Ctx<'_, Packet>, flow: FlowMapping) {
        let Some(twin) = self.cfg.mirror_to else {
            return;
        };
        let msg = PceFlowMsg {
            kind: PceKind::ReverseSync,
            mapping: flow,
        };
        let pkt = self
            .stack
            .pce(ports::ETR_SYNC, twin, ports::ETR_SYNC, PceMsg::Flow(msg));
        ctx.send(NET_PORT, pkt);
    }

    fn push_flow(&mut self, ctx: &mut Ctx<'_, Packet>, flow: FlowMapping) {
        let msg = PceFlowMsg {
            kind: PceKind::MappingPush,
            mapping: flow,
        };
        let targets: Vec<Ipv4Address> = if self.cfg.push_to_all_itrs {
            self.cfg.itr_rlocs.clone()
        } else {
            self.cfg.itr_rlocs.first().copied().into_iter().collect()
        };
        for itr in targets {
            let pkt = self
                .stack
                .pce(ports::PCE_MAP, itr, ports::PCE_MAP, PceMsg::Flow(msg));
            self.stats.pushes_sent += 1;
            ctx.send(NET_PORT, pkt);
        }
    }

    /// Promote a warm standby: re-install every mirrored flow at the
    /// local ITRs, so state lost with the primary is re-pushed. The
    /// dynamics subsystem calls it at detection time after the primary
    /// dies, through `Sim::schedule_call` (DESIGN.md §13).
    pub fn take_over(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let flows: Vec<FlowMapping> = self.db.values().copied().collect();
        ctx.trace(format_args!(
            "PCE {} takes over: re-pushing {} flows",
            self.cfg.addr,
            flows.len()
        ));
        for flow in flows {
            self.push_flow(ctx, flow);
        }
    }

    /// React to a provider reachability change (DESIGN.md §7): the
    /// site-internal IGP tells the domain PCE a border link died or
    /// came back, and the dynamics subsystem calls this through
    /// `Sim::schedule_call`. On a failure, the IRC engine is told the
    /// provider is down and every database flow whose local tunnel end
    /// (`RLOC_S`) was the dead locator is re-pathed onto a surviving
    /// provider, then re-pushed:
    ///
    /// * to **all local ITRs** (the paper's push-to-all argument makes
    ///   the move hitless for locally-originated directions), and
    /// * to the **remote tunnel end** (`RLOC_D`) of each affected flow,
    ///   fixing the opposite direction's encapsulation target — the
    ///   push-based cross-domain recovery a pull system can only match
    ///   after probe timeout plus re-resolution.
    ///
    /// # Panics
    /// Panics if `provider` is not an index into this PCE's providers.
    pub fn provider_reachability_changed(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        provider: usize,
        up: bool,
    ) {
        self.stats.provider_events += 1;
        self.irc.set_up(provider, up);
        if up {
            return;
        }
        let dead = self.irc.providers()[provider].rloc;
        // Re-home every tracked flow exactly once; db flows the engine
        // tracked under the same key reuse that choice, the rest (e.g.
        // reverse-synced entries it never saw) are admitted fresh.
        let moved: BTreeMap<(Ipv4Address, Ipv4Address), Ipv4Address> = self
            .irc
            .repath(provider)
            .into_iter()
            .map(|m| (m.flow_key, m.new_rloc))
            .collect();
        let affected: Vec<FlowMapping> = self
            .db
            .values()
            .filter(|f| f.rloc_s == dead)
            .copied()
            .collect();
        ctx.trace(format_args!(
            "PCE {} provider {} (RLOC {}) down: re-pathing {} flows",
            self.cfg.addr,
            provider,
            dead,
            affected.len()
        ));
        for flow in affected {
            let key = (flow.source_eid, flow.dest_eid);
            let new_rloc = match moved.get(&key) {
                Some(&rloc) => rloc,
                None => match self.irc.admit_flow(key, FLOW_RATE_ESTIMATE) {
                    Some((_, rloc)) => rloc,
                    None => continue, // every provider down: nothing to re-path onto
                },
            };
            let updated = FlowMapping {
                rloc_s: new_rloc,
                ..flow
            };
            self.db.insert(key, updated);
            self.mirror_flow(ctx, updated);
            self.push_flow(ctx, updated);
            // Fix the opposite direction at the remote tunnel end: its
            // flow entry (dest→source) encapsulates toward our dead
            // RLOC until told otherwise.
            let remote_fix = FlowMapping {
                source_eid: flow.dest_eid,
                dest_eid: flow.source_eid,
                rloc_s: flow.rloc_d,
                rloc_d: new_rloc,
                ttl_minutes: flow.ttl_minutes,
            };
            let msg = PceFlowMsg {
                kind: PceKind::MappingPush,
                mapping: remote_fix,
            };
            let pkt = self.stack.pce(
                ports::PCE_MAP,
                flow.rloc_d,
                ports::PCE_MAP,
                PceMsg::Flow(msg),
            );
            ctx.send(NET_PORT, pkt);
            self.stats.pushes_sent += 1;
            self.stats.repaths += 1;
        }
    }
}

/// Extract the question name from a typed DNS-reply packet.
fn parse_qname(pkt: &Packet) -> Option<Name> {
    match pkt {
        Packet::Dns { msg, .. } => msg.question().map(|q| q.name.clone()),
        _ => None,
    }
}

impl Node<Packet> for Pce {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, pkt: Packet) {
        let other = if port == DNS_PORT { NET_PORT } else { DNS_PORT };
        let dst = pkt.dst();
        if let Some(p) = pkt.udp_ports() {
            // IPC from the local DNS server (either port; consumed).
            if dst == self.cfg.addr && p.dst == ports::PCE_IPC {
                if let Packet::Pce {
                    msg: PceMsg::Ipc(notice),
                    ..
                } = pkt
                {
                    self.stats.ipc_notices += 1;
                    ctx.trace(format_args!(
                        "step1: PCE {} learns E_S {} for query {}",
                        self.cfg.addr, notice.client, notice.qname
                    ));
                    self.pending_requesters.insert(notice.qname, notice.client);
                } else {
                    self.stats.malformed += 1;
                }
                return;
            }
            // ETR reverse sync addressed to us (database update).
            if dst == self.cfg.addr && p.dst == ports::ETR_SYNC {
                if let Packet::Pce {
                    msg: PceMsg::Flow(msg),
                    ..
                } = pkt
                {
                    if msg.kind == PceKind::ReverseSync {
                        self.stats.reverse_syncs_received += 1;
                        self.db
                            .insert((msg.mapping.source_eid, msg.mapping.dest_eid), msg.mapping);
                        ctx.trace(format_args!(
                            "PCE {} database updated by reverse sync ({} -> {})",
                            self.cfg.addr, msg.mapping.source_eid, msg.mapping.dest_eid
                        ));
                    }
                } else {
                    self.stats.malformed += 1;
                }
                return;
            }
            // Step 7: port-P packets heading to our DNS server.
            if port == NET_PORT && p.dst == ports::PCE_MAP {
                self.handle_port_p(ctx, pkt);
                return;
            }
            // Step 6: DNS responses leaving our server with an answer
            // in the domain's EID space.
            if port == DNS_PORT && p.src == ports::DNS {
                if let Packet::Dns { msg, .. } = &pkt {
                    if msg.is_response && msg.authoritative {
                        if let Some(answer) = msg.first_answer_a() {
                            if self.in_domain_eids(answer) {
                                self.intercept_dns_reply(ctx, pkt, dst, answer);
                                return;
                            }
                        }
                    }
                }
            }
        }
        // Everything else: transparent bump-in-the-wire forward.
        self.stats.forwarded += 1;
        ctx.send_after(FORWARD_DELAY, other, pkt);
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_, Packet>) {
        // A PCE crash loses everything computed at runtime: the flow
        // database, the IPC-learned requester map and the IRC engine's
        // booked flows (packets it was forwarding are deferred sends,
        // which the engine drops if they fall due during the outage).
        // The static configuration is provisioned state and survives;
        // stats and push times model the operator's monitoring box.
        self.db.clear();
        self.pending_requesters.clear();
        self.irc = IrcEngine::new(self.cfg.providers.clone(), self.cfg.policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lispwire::dnswire::Message;
    use lispwire::pcewire::IpcQueryNotice;
    use netsim::{LinkCfg, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn pce_d_config() -> PceConfig {
        PceConfig::new(
            a([12, 0, 0, 200]),
            vec![Prefix::new(a([101, 0, 0, 0]), 8)],
            vec![a([12, 0, 0, 1]), a([13, 0, 0, 1])],
            vec![
                Provider::new("X", a([12, 0, 0, 1]), 100.0),
                Provider::new("Y", a([13, 0, 0, 1]), 100.0),
            ],
        )
    }

    /// Feeds packets into a PCE port and records what comes out of it.
    type Tap = netsim::testkit::Tap<Packet>;

    /// The packets `tap` received, without their arrival times.
    fn received(sim: &Sim<Packet>, tap: netsim::NodeId) -> Vec<Packet> {
        sim.node_ref::<Tap>(tap).packets().cloned().collect()
    }

    fn world(cfg: PceConfig) -> (Sim<Packet>, netsim::NodeId, netsim::NodeId, netsim::NodeId) {
        let mut sim: Sim<Packet> = Sim::new(2);
        sim.trace.enable();
        let dns_side = sim.add_node("dns-side", Box::new(Tap::sink()));
        let net_side = sim.add_node("net-side", Box::new(Tap::sink()));
        let pce = sim.add_node("pce", Box::new(Pce::new(cfg)));
        // PCE port 0 = DNS side, port 1 = network side.
        sim.connect(pce, dns_side, LinkCfg::ipc());
        sim.connect(pce, net_side, LinkCfg::lan());
        (sim, pce, dns_side, net_side)
    }

    fn auth_reply_packet(answer: Ipv4Address, reply_dst: Ipv4Address) -> Packet {
        use lispwire::dnswire::Record;
        let q = Message::query_a(42, Name::parse_str("host.d.example").unwrap(), false);
        let mut r = Message::response_to(&q);
        r.authoritative = true;
        r.answers.push(Record::a(
            Name::parse_str("host.d.example").unwrap(),
            answer,
            300,
        ));
        IpStack::new(a([12, 0, 0, 53])).dns(ports::DNS, reply_dst, 32853, r)
    }

    #[test]
    fn step6_intercepts_matching_reply() {
        let (mut sim, pce, dns_side, net_side) = world(pce_d_config());
        let reply = auth_reply_packet(a([101, 0, 0, 7]), a([10, 0, 0, 53]));
        sim.node_mut::<Tap>(dns_side).outbox = vec![reply];
        sim.schedule_timer(dns_side, Ns::ZERO, 0);
        sim.run();
        let p = sim.node_mut::<Pce>(pce);
        assert_eq!(p.stats.dns_intercepts, 1);
        assert_eq!(p.stats.forwarded, 0);
        let out = received(&sim, net_side);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Packet::Pce {
                ip,
                ports: p,
                msg:
                    PceMsg::DnsMapping {
                        pce_d,
                        mapping,
                        dns_reply,
                    },
            } => {
                assert_eq!(ip.dst, a([10, 0, 0, 53]));
                assert_eq!(p.dst, ports::PCE_MAP);
                assert_eq!(*pce_d, a([12, 0, 0, 200]));
                assert_eq!(mapping.eid_prefix, a([101, 0, 0, 7]));
                assert_eq!(mapping.locators.len(), 2);
                // The original reply is carried verbatim.
                assert!(matches!(**dns_reply, Packet::Dns { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_matching_reply_passes_through() {
        let (mut sim, pce, dns_side, net_side) = world(pce_d_config());
        // Answer outside the domain's EID space.
        let reply = auth_reply_packet(a([55, 0, 0, 7]), a([10, 0, 0, 53]));
        sim.node_mut::<Tap>(dns_side).outbox = vec![reply.clone()];
        sim.schedule_timer(dns_side, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_mut::<Pce>(pce).stats.dns_intercepts, 0);
        let out = received(&sim, net_side);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], reply, "forwarded byte-identical");
    }

    #[test]
    fn step7_decap_forwards_and_pushes() {
        // PCE_S for domain S (EIDs 100/8, ITRs at 10.0.0.1 & 11.0.0.1).
        let cfg = PceConfig::new(
            a([10, 0, 0, 200]),
            vec![Prefix::new(a([100, 0, 0, 0]), 8)],
            vec![a([10, 0, 0, 1]), a([11, 0, 0, 1])],
            vec![
                Provider::new("A", a([10, 0, 0, 1]), 100.0),
                Provider::new("B", a([11, 0, 0, 1]), 100.0),
            ],
        );
        let (mut sim, pce, dns_side, net_side) = world(cfg);

        // First the IPC notice: E_S asked for host.d.example.
        let notice = IpcQueryNotice {
            client: a([100, 0, 0, 5]),
            qname: Name::parse_str("host.d.example").unwrap(),
        };
        let ipc_pkt = IpStack::new(a([10, 0, 0, 53])).pce(
            ports::PCE_IPC,
            a([10, 0, 0, 200]),
            ports::PCE_IPC,
            PceMsg::Ipc(notice),
        );
        // Then the port-P packet from PCE_D.
        let inner_reply = auth_reply_packet(a([101, 0, 0, 7]), a([10, 0, 0, 53]));
        let mapping = MapRecord {
            eid_prefix: a([101, 0, 0, 7]),
            prefix_len: 32,
            ttl_minutes: 60,
            locators: vec![Locator::new(a([12, 0, 0, 1]), 1, 100)],
        };
        let p_msg = PceMsg::DnsMapping {
            pce_d: a([12, 0, 0, 200]),
            mapping,
            dns_reply: Box::new(inner_reply),
        };
        let p_pkt = IpStack::new(a([12, 0, 0, 200])).pce(
            ports::PCE_MAP,
            a([10, 0, 0, 53]),
            ports::PCE_MAP,
            p_msg,
        );

        sim.node_mut::<Tap>(dns_side).outbox = vec![ipc_pkt];
        sim.node_mut::<Tap>(net_side).outbox = vec![p_pkt];
        sim.schedule_timer(dns_side, Ns::ZERO, 0);
        sim.schedule_timer(net_side, Ns::from_ms(1), 0);
        sim.run();

        let p = sim.node_mut::<Pce>(pce);
        assert_eq!(p.stats.ipc_notices, 1);
        assert_eq!(p.stats.p_decaps, 1);
        assert_eq!(p.stats.pushes_sent, 2, "pushed to both ITRs");
        assert_eq!(p.stats.unknown_requester, 0);
        assert_eq!(p.db.len(), 1);
        let flow = p.db[&(a([100, 0, 0, 5]), a([101, 0, 0, 7]))];
        assert_eq!(flow.rloc_d, a([12, 0, 0, 1]));
        assert!(flow.rloc_s == a([10, 0, 0, 1]) || flow.rloc_s == a([11, 0, 0, 1]));

        // 7a: the DNS server side got the original reply.
        let dns_out = received(&sim, dns_side);
        assert_eq!(dns_out.len(), 1);
        match &dns_out[0] {
            Packet::Dns { ip, ports: p, .. } => {
                assert_eq!(p.src, ports::DNS);
                assert_eq!(ip.dst, a([10, 0, 0, 53]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // 7b: the net side carried two pushes.
        let net_out = received(&sim, net_side);
        let pushes: Vec<_> = net_out
            .iter()
            .filter(|b| matches!(b.udp_ports(), Some(p) if p.dst == ports::PCE_MAP))
            .collect();
        assert_eq!(pushes.len(), 2);
    }

    #[test]
    fn step7_without_ipc_counts_unknown() {
        let cfg = PceConfig::new(
            a([10, 0, 0, 200]),
            vec![Prefix::new(a([100, 0, 0, 0]), 8)],
            vec![a([10, 0, 0, 1])],
            vec![Provider::new("A", a([10, 0, 0, 1]), 100.0)],
        );
        let (mut sim, pce, _dns_side, net_side) = world(cfg);
        let inner_reply = auth_reply_packet(a([101, 0, 0, 7]), a([10, 0, 0, 53]));
        let mapping = MapRecord::host(a([101, 0, 0, 7]), a([12, 0, 0, 1]), 60);
        let p_msg = PceMsg::DnsMapping {
            pce_d: a([12, 0, 0, 200]),
            mapping,
            dns_reply: Box::new(inner_reply),
        };
        let p_pkt = IpStack::new(a([12, 0, 0, 200])).pce(
            ports::PCE_MAP,
            a([10, 0, 0, 53]),
            ports::PCE_MAP,
            p_msg,
        );
        sim.node_mut::<Tap>(net_side).outbox = vec![p_pkt];
        sim.schedule_timer(net_side, Ns::ZERO, 0);
        sim.run();
        let p = sim.node_mut::<Pce>(pce);
        assert_eq!(p.stats.p_decaps, 1);
        assert_eq!(p.stats.unknown_requester, 1);
        assert_eq!(p.stats.pushes_sent, 0);
    }

    #[test]
    fn ablation_push_to_one_itr() {
        let mut cfg = PceConfig::new(
            a([10, 0, 0, 200]),
            vec![Prefix::new(a([100, 0, 0, 0]), 8)],
            vec![a([10, 0, 0, 1]), a([11, 0, 0, 1])],
            vec![
                Provider::new("A", a([10, 0, 0, 1]), 100.0),
                Provider::new("B", a([11, 0, 0, 1]), 100.0),
            ],
        );
        cfg.push_to_all_itrs = false;
        let (mut sim, pce, dns_side, net_side) = world(cfg);
        let notice = IpcQueryNotice {
            client: a([100, 0, 0, 5]),
            qname: Name::parse_str("host.d.example").unwrap(),
        };
        let ipc_pkt = IpStack::new(a([10, 0, 0, 53])).pce(
            ports::PCE_IPC,
            a([10, 0, 0, 200]),
            ports::PCE_IPC,
            PceMsg::Ipc(notice),
        );
        let inner_reply = auth_reply_packet(a([101, 0, 0, 7]), a([10, 0, 0, 53]));
        let p_msg = PceMsg::DnsMapping {
            pce_d: a([12, 0, 0, 200]),
            mapping: MapRecord::host(a([101, 0, 0, 7]), a([12, 0, 0, 1]), 60),
            dns_reply: Box::new(inner_reply),
        };
        let p_pkt = IpStack::new(a([12, 0, 0, 200])).pce(
            ports::PCE_MAP,
            a([10, 0, 0, 53]),
            ports::PCE_MAP,
            p_msg,
        );
        sim.node_mut::<Tap>(dns_side).outbox = vec![ipc_pkt];
        sim.node_mut::<Tap>(net_side).outbox = vec![p_pkt];
        sim.schedule_timer(dns_side, Ns::ZERO, 0);
        sim.schedule_timer(net_side, Ns::from_ms(1), 0);
        sim.run();
        assert_eq!(sim.node_mut::<Pce>(pce).stats.pushes_sent, 1);
    }

    #[test]
    fn on_demand_delays_step6() {
        let run = |precompute: bool| -> Ns {
            let mut cfg = pce_d_config();
            cfg.precompute = precompute;
            let (mut sim, _pce, dns_side, net_side) = world(cfg);
            let reply = auth_reply_packet(a([101, 0, 0, 7]), a([10, 0, 0, 53]));
            sim.node_mut::<Tap>(dns_side).outbox = vec![reply];
            sim.schedule_timer(dns_side, Ns::ZERO, 0);
            sim.run();
            assert_eq!(sim.node_ref::<Tap>(net_side).received.len(), 1);
            sim.now()
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(slow - fast, Ns::from_ms(2));
    }

    /// Packets the PCE holds for different times each keep their own
    /// delay: with precompute off, a step-6 reply sent at 0 (held
    /// 2.005 ms) and a pass-through reply sent at 0.5 ms (held 5 µs)
    /// leave exactly as each would alone, the pass-through first.
    #[test]
    fn held_packets_keep_their_own_delays() {
        let run = |sends: &[(Ns, &Packet)]| -> Vec<(Ns, Packet)> {
            let mut cfg = pce_d_config();
            cfg.precompute = false;
            let (mut sim, _pce, dns_side, net_side) = world(cfg);
            let tap = sim.node_mut::<Tap>(dns_side);
            tap.outbox = sends.iter().map(|&(_, pkt)| pkt.clone()).collect();
            for (token, &(at, _)) in sends.iter().enumerate() {
                sim.schedule_timer(dns_side, at, token as u64);
            }
            sim.run();
            sim.node_ref::<Tap>(net_side).received.clone()
        };
        let step6 = auth_reply_packet(a([101, 0, 0, 7]), a([10, 0, 0, 53]));
        let passthrough = auth_reply_packet(a([55, 0, 0, 7]), a([10, 0, 0, 53]));
        let alone_step6 = run(&[(Ns::ZERO, &step6)]);
        let alone_passthrough = run(&[(Ns::from_us(500), &passthrough)]);
        let both = run(&[(Ns::ZERO, &step6), (Ns::from_us(500), &passthrough)]);
        assert_eq!(both, [alone_passthrough[0].clone(), alone_step6[0].clone()]);
        assert_eq!(both[0].1, passthrough);
        assert!(matches!(
            both[1].1,
            Packet::Pce {
                msg: PceMsg::DnsMapping { .. },
                ..
            }
        ));
    }

    #[test]
    fn provider_failure_repaths_and_pushes_remote_fix() {
        let (mut sim, pce, _dns_side, net_side) = world(pce_d_config());
        // A served inbound flow: remote E_S ↔ local E_D riding provider X.
        let flow = FlowMapping {
            source_eid: a([101, 0, 0, 7]),
            dest_eid: a([100, 0, 0, 5]),
            rloc_s: a([12, 0, 0, 1]),  // local end: provider X (fails)
            rloc_d: a([10, 0, 0, 99]), // remote end
            ttl_minutes: 60,
        };
        sim.node_mut::<Pce>(pce)
            .db
            .insert((flow.source_eid, flow.dest_eid), flow);
        sim.schedule_call::<Pce>(pce, Ns::from_ms(10), |p, ctx| {
            p.provider_reachability_changed(ctx, 0, false)
        });
        sim.run();

        let p = sim.node_mut::<Pce>(pce);
        assert_eq!(p.stats.provider_events, 1);
        assert_eq!(p.stats.repaths, 1);
        assert!(!p.irc.providers()[0].up);
        let updated = p.db[&(a([101, 0, 0, 7]), a([100, 0, 0, 5]))];
        assert_eq!(updated.rloc_s, a([13, 0, 0, 1]), "re-homed onto Y");
        // Local pushes to both ITRs plus the remote fix.
        assert_eq!(p.stats.pushes_sent, 3);
        let out = received(&sim, net_side);
        let remote_fix = out
            .iter()
            .find_map(|b| match b {
                Packet::Pce {
                    ip,
                    msg: PceMsg::Flow(msg),
                    ..
                } if ip.dst == a([10, 0, 0, 99]) => Some(*msg),
                _ => None,
            })
            .expect("remote tunnel end must be told the new RLOC");
        assert_eq!(remote_fix.kind, PceKind::MappingPush);
        // The remote's forward direction (E_S -> E_D) now targets Y.
        assert_eq!(remote_fix.mapping.source_eid, a([100, 0, 0, 5]));
        assert_eq!(remote_fix.mapping.dest_eid, a([101, 0, 0, 7]));
        assert_eq!(remote_fix.mapping.rloc_d, a([13, 0, 0, 1]));
    }

    #[test]
    fn provider_recovery_only_marks_up() {
        let (mut sim, pce, _dns_side, _net_side) = world(pce_d_config());
        for (ms, up) in [(1, false), (2, true)] {
            sim.schedule_call::<Pce>(pce, Ns::from_ms(ms), move |p, ctx| {
                p.provider_reachability_changed(ctx, 0, up)
            });
        }
        sim.run();
        let p = sim.node_mut::<Pce>(pce);
        assert_eq!(p.stats.provider_events, 2);
        assert!(p.irc.providers()[0].up);
        assert_eq!(p.stats.repaths, 0);
    }

    #[test]
    fn reverse_sync_updates_db() {
        let (mut sim, pce, _dns_side, net_side) = world(pce_d_config());
        let flow = FlowMapping {
            source_eid: a([101, 0, 0, 7]),
            dest_eid: a([100, 0, 0, 5]),
            rloc_s: a([12, 0, 0, 1]),
            rloc_d: a([10, 0, 0, 1]),
            ttl_minutes: 60,
        };
        let msg = PceFlowMsg {
            kind: PceKind::ReverseSync,
            mapping: flow,
        };
        let pkt = IpStack::new(a([12, 0, 0, 1])).pce(
            ports::ETR_SYNC,
            a([12, 0, 0, 200]),
            ports::ETR_SYNC,
            PceMsg::Flow(msg),
        );
        sim.node_mut::<Tap>(net_side).outbox = vec![pkt];
        sim.schedule_timer(net_side, Ns::ZERO, 0);
        sim.run();
        let p = sim.node_mut::<Pce>(pce);
        assert_eq!(p.stats.reverse_syncs_received, 1);
        assert_eq!(p.db.len(), 1);
    }
}
