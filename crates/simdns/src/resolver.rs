//! The recursive resolver node (`DNS_S` in the paper's Fig. 1).
//!
//! Clients send it RD=1 queries; it resolves them *iteratively* from root
//! hints, following referrals and caching both positive answers and
//! NS/glue sets. Retransmission timers recover from lost upstream packets
//! (relevant for fault-injection experiments); a step budget bounds
//! referral chains.

use inet::stack::IpStack;
use lispwire::dnswire::{Message, Name, Rcode, Rdata, Record};
use lispwire::packet::{Packet, PceMsg};
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, Node, Ns, PortId};
use std::collections::BTreeMap;

/// Retransmit an unanswered upstream query after this long.
const RETRANSMIT: Ns = Ns::from_secs(1);
/// Give up after this many transmissions of the same step.
const MAX_TRIES: u32 = 3;
/// Maximum referral steps per resolution: bounds a referral loop.
const MAX_STEPS: u32 = 16;

/// Resolver tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolverConfig {
    /// If set, notify this address (the domain's PCE) of every client
    /// query via an [`lispwire::pcewire::IpcQueryNotice`] on the IPC port
    /// — the paper's Fig. 1 dashed line (step 1).
    pub ipc_notify: Option<Ipv4Address>,
}

#[derive(Debug, Clone)]
struct InFlight {
    client: Ipv4Address,
    client_port: u16,
    client_qid: u16,
    qname: Name,
    started: Ns,
    server: Ipv4Address,
    tries: u32,
    steps: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct CachedAnswer {
    addr: Ipv4Address,
    expires: Ns,
    original_ttl: u32,
}

#[derive(Debug, Clone)]
struct CachedNs {
    servers: Vec<Ipv4Address>,
    expires: Ns,
}

/// A recursive (iterating) resolver.
pub struct Resolver {
    stack: IpStack,
    cfg: ResolverConfig,
    root_hints: Vec<Ipv4Address>,
    /// The port every outgoing packet leaves on. Single-homed resolvers
    /// keep the default 0; a resolver behind a replicated PCE bump is
    /// re-pointed at the standby's port by [`Resolver::fail_over`].
    uplink: PortId,
    /// Standby uplink: `(port, standby PCE address)` applied by
    /// [`Resolver::fail_over`].
    failover: Option<(PortId, Ipv4Address)>,
    // Ordered maps (not HashMap): any future iteration over the caches
    // is deterministic, like every other table in the tree.
    answer_cache: BTreeMap<Name, CachedAnswer>,
    ns_cache: BTreeMap<Name, CachedNs>,
    in_flight: BTreeMap<u16, InFlight>,
    next_qid: u16,
    /// Answers served from the positive cache.
    pub cache_hits: u64,
    /// Resolutions completed successfully.
    pub resolved: u64,
    /// Resolutions failed (SERVFAIL to client).
    pub failed: u64,
    /// Upstream queries sent (including retransmissions).
    pub upstream_queries: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Completed resolution latencies `(name, latency)`.
    pub resolution_times: Vec<(Name, Ns)>,
}

const UPSTREAM_PORT: u16 = 32853;

impl Resolver {
    /// A resolver at `addr` with the given root hints.
    pub fn new(addr: Ipv4Address, root_hints: Vec<Ipv4Address>) -> Self {
        Self::with_config(addr, root_hints, ResolverConfig::default())
    }

    /// A resolver with explicit tunables.
    pub fn with_config(
        addr: Ipv4Address,
        root_hints: Vec<Ipv4Address>,
        cfg: ResolverConfig,
    ) -> Self {
        Self {
            stack: IpStack::new(addr),
            cfg,
            root_hints,
            uplink: 0,
            failover: None,
            answer_cache: BTreeMap::new(),
            ns_cache: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            next_qid: 1,
            cache_hits: 0,
            resolved: 0,
            failed: 0,
            upstream_queries: 0,
            retries: 0,
            resolution_times: Vec::new(),
        }
    }

    /// This resolver's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Configure the standby uplink: [`Resolver::fail_over`] moves
    /// every future transmission onto `port` and — if IPC notification
    /// is on — re-targets its notices at `standby_pce`.
    pub fn set_failover(&mut self, port: PortId, standby_pce: Ipv4Address) {
        self.failover = Some((port, standby_pce));
    }

    /// Switch onto the standby uplink set by [`Resolver::set_failover`]
    /// (a no-op without one). Models the site moving its DNS path onto
    /// the backup PCE appliance after the primary bump dies; the
    /// dynamics subsystem calls it at detection time through
    /// `Sim::schedule_call`.
    pub fn fail_over(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if let Some((port, pce)) = self.failover {
            self.uplink = port;
            if self.cfg.ipc_notify.is_some() {
                self.cfg.ipc_notify = Some(pce);
            }
            ctx.trace(format_args!(
                "resolver {} fails over to standby uplink port {port}",
                self.stack.addr
            ));
        }
    }

    /// The deepest cached NS set applicable to `qname`, else a root hint.
    fn pick_server(&self, qname: &Name, now: Ns) -> Ipv4Address {
        qname
            .ancestors()
            .find_map(|zone| {
                self.ns_cache
                    .get(zone)
                    .filter(|c| c.expires > now)
                    .and_then(|c| c.servers.first().copied())
            })
            .unwrap_or(self.root_hints[0])
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_, Packet>, qid: u16) {
        let Some(fl) = self.in_flight.get(&qid) else {
            return;
        };
        let q = Message::query_a(qid, fl.qname.clone(), false);
        let pkt = self.stack.dns(UPSTREAM_PORT, fl.server, ports::DNS, q);
        self.upstream_queries += 1;
        ctx.trace(format_args!("resolver asks {} for {}", fl.server, fl.qname));
        ctx.send(self.uplink, pkt);
        let token = timer_token(qid, fl.generation);
        ctx.set_timer(RETRANSMIT, token);
    }

    fn reply_client(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        fl: &InFlight,
        rcode: Rcode,
        answers: Vec<Record>,
    ) {
        let mut resp = Message {
            id: fl.client_qid,
            is_response: true,
            authoritative: false,
            recursion_desired: true,
            recursion_available: true,
            rcode,
            questions: vec![lispwire::dnswire::Question {
                name: fl.qname.clone(),
                qtype: lispwire::dnswire::RecordType::A,
            }],
            answers,
            authority: Vec::new(),
            additional: Vec::new(),
        };
        resp.recursion_available = true;
        let pkt = self.stack.dns(ports::DNS, fl.client, fl.client_port, resp);
        ctx.send(self.uplink, pkt);
    }

    fn handle_client_query(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        src: Ipv4Address,
        src_port: u16,
        msg: Message,
    ) {
        let Some(q) = msg.question().cloned() else {
            return;
        };
        ctx.trace(format_args!("resolver got client query for {}", q.name));
        // Step 1 of the paper: the PCE obtains E_S by IPC with the DNS.
        if let Some(pce) = self.cfg.ipc_notify {
            let notice = lispwire::pcewire::IpcQueryNotice {
                client: src,
                qname: q.name.clone(),
            };
            let pkt = self
                .stack
                .pce(ports::PCE_IPC, pce, ports::PCE_IPC, PceMsg::Ipc(notice));
            ctx.trace(format_args!(
                "resolver IPC notice to PCE: {} asked for {}",
                src, q.name
            ));
            ctx.send(self.uplink, pkt);
        }
        let now = ctx.now();
        if let Some(hit) = self.answer_cache.get(&q.name) {
            if hit.expires > now {
                self.cache_hits += 1;
                let remaining = (hit.expires - now).0 / 1_000_000_000;
                let rec = Record::a(
                    q.name.clone(),
                    hit.addr,
                    remaining.min(u64::from(hit.original_ttl)) as u32,
                );
                let fl = InFlight {
                    client: src,
                    client_port: src_port,
                    client_qid: msg.id,
                    qname: q.name.clone(),
                    started: now,
                    server: Ipv4Address::UNSPECIFIED,
                    tries: 0,
                    steps: 0,
                    generation: 0,
                };
                ctx.trace(format_args!("resolver cache hit for {}", q.name));
                self.reply_client(ctx, &fl, Rcode::NoError, vec![rec]);
                return;
            }
        }
        let qid = self.next_qid;
        self.next_qid = self.next_qid.wrapping_add(1).max(1);
        let server = self.pick_server(&q.name, now);
        self.in_flight.insert(
            qid,
            InFlight {
                client: src,
                client_port: src_port,
                client_qid: msg.id,
                qname: q.name,
                started: now,
                server,
                tries: 1,
                steps: 0,
                generation: 0,
            },
        );
        self.send_upstream(ctx, qid);
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_, Packet>, msg: Message) {
        let qid = msg.id;
        let Some(mut fl) = self.in_flight.remove(&qid) else {
            return;
        };
        let now = ctx.now();
        fl.generation += 1; // invalidate outstanding retransmit timers

        // Positive answer?
        if msg.rcode == Rcode::NoError {
            if let Some(addr) = msg.first_answer_a() {
                let ttl = msg.answers.first().map(|r| r.ttl).unwrap_or(60);
                self.answer_cache.insert(
                    fl.qname.clone(),
                    CachedAnswer {
                        addr,
                        expires: now + Ns::from_secs(u64::from(ttl)),
                        original_ttl: ttl,
                    },
                );
                self.resolved += 1;
                let latency = now - fl.started;
                self.resolution_times.push((fl.qname.clone(), latency));
                ctx.trace(format_args!(
                    "resolver resolved {} -> {} in {}",
                    fl.qname, addr, latency
                ));
                let rec = Record::a(fl.qname.clone(), addr, ttl);
                self.reply_client(ctx, &fl, Rcode::NoError, vec![rec]);
                return;
            }
            // Referral?
            if !msg.authority.is_empty() {
                let mut glue_addrs: Vec<(Name, Ipv4Address, u32)> = Vec::new();
                for rec in &msg.additional {
                    if let Rdata::A(a) = rec.rdata {
                        glue_addrs.push((rec.name.clone(), a, rec.ttl));
                    }
                }
                // Zone being delegated = owner of the NS records.
                let zone = msg.authority[0].name.clone();
                let servers: Vec<Ipv4Address> = msg
                    .authority
                    .iter()
                    .filter_map(|ns_rec| match &ns_rec.rdata {
                        Rdata::Ns(nsname) => glue_addrs
                            .iter()
                            .find(|(gname, _, _)| gname == nsname)
                            .map(|(_, a, _)| *a),
                        _ => None,
                    })
                    .collect();
                if servers.is_empty() {
                    self.failed += 1;
                    self.reply_client(ctx, &fl, Rcode::ServFail, vec![]);
                    return;
                }
                let ttl = msg.authority[0].ttl;
                self.ns_cache.insert(
                    zone.clone(),
                    CachedNs {
                        servers: servers.clone(),
                        expires: now + Ns::from_secs(u64::from(ttl)),
                    },
                );
                fl.steps += 1;
                if fl.steps > MAX_STEPS {
                    self.failed += 1;
                    self.reply_client(ctx, &fl, Rcode::ServFail, vec![]);
                    return;
                }
                fl.server = servers[0];
                fl.tries = 1;
                ctx.trace(format_args!(
                    "resolver follows referral for {} to zone {} @ {}",
                    fl.qname, zone, fl.server
                ));
                self.in_flight.insert(qid, fl);
                self.send_upstream(ctx, qid);
                return;
            }
            // NoError but neither answer nor referral: treat as failure.
            self.failed += 1;
            self.reply_client(ctx, &fl, Rcode::ServFail, vec![]);
            return;
        }
        // NXDOMAIN propagates; anything else is SERVFAIL.
        let code = if msg.rcode == Rcode::NxDomain {
            Rcode::NxDomain
        } else {
            Rcode::ServFail
        };
        if code == Rcode::NxDomain {
            self.resolved += 1;
        } else {
            self.failed += 1;
        }
        self.reply_client(ctx, &fl, code, vec![]);
    }
}

fn timer_token(qid: u16, generation: u32) -> u64 {
    (u64::from(generation) << 16) | u64::from(qid)
}

impl Node<Packet> for Resolver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let Packet::Dns { ip, ports: p, msg } = pkt else {
            return;
        };
        if ip.dst != self.stack.addr {
            return;
        }
        if p.dst == ports::DNS && !msg.is_response {
            self.handle_client_query(ctx, ip.src, p.src, *msg);
        } else if p.dst == UPSTREAM_PORT && msg.is_response && p.src == ports::DNS {
            self.handle_upstream_response(ctx, *msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        let qid = (token & 0xffff) as u16;
        let generation = (token >> 16) as u32;
        let give_up;
        match self.in_flight.get_mut(&qid) {
            Some(fl) if fl.generation == generation => {
                if fl.tries >= MAX_TRIES {
                    give_up = true;
                } else {
                    fl.tries += 1;
                    give_up = false;
                }
            }
            _ => return, // stale timer
        }
        if give_up {
            let fl = self.in_flight.remove(&qid).expect("checked above");
            self.failed += 1;
            ctx.trace(format_args!("resolver gives up on {}", fl.qname));
            self.reply_client(ctx, &fl, Rcode::ServFail, vec![]);
        } else {
            self.retries += 1;
            ctx.trace(format_args!("resolver retransmits qid {qid}"));
            self.send_upstream(ctx, qid);
        }
    }
}

/// Convenience for building a resolver-facing client query packet.
pub fn client_query_packet(
    client: &IpStack,
    client_port: u16,
    resolver: Ipv4Address,
    qid: u16,
    qname: Name,
) -> Packet {
    let q = Message::query_a(qid, qname, true);
    client.dns(client_port, resolver, ports::DNS, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthServer;
    use crate::zone::{Zone, ZoneStore};
    use inet::{Prefix, Router};
    use netsim::{LinkCfg, Sim};
    use proptest::prelude::*;

    fn n(s: &str) -> Name {
        Name::parse_str(s).unwrap()
    }
    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    type Tap = netsim::testkit::Tap<Packet>;

    /// The client's query for `qname` with DNS id `id`.
    fn query(id: u16, qname: &str) -> Packet {
        let client = IpStack::new(a([10, 0, 0, 1]));
        client_query_packet(&client, 40000, a([10, 0, 0, 53]), id, n(qname))
    }

    /// Arrival time and first A answer of every reply the client got.
    fn answers(sim: &Sim<Packet>, client: netsim::NodeId) -> Vec<(Ns, Option<Ipv4Address>)> {
        let tap = sim.node_ref::<Tap>(client);
        tap.received
            .iter()
            .filter_map(|(at, pkt)| match pkt {
                Packet::Dns { msg, .. } => Some((*at, msg.first_answer_a())),
                _ => None,
            })
            .collect()
    }

    /// Build: client - resolver - router - {root, tld(example), auth(d.example)}
    /// Root delegates `example` to TLD; TLD delegates `d.example` to auth;
    /// auth holds host.d.example A 101.0.0.5. Client timer token `i`
    /// sends query `i + 1` for host.d.example.
    fn build(owd: Ns, drop_prob: f64) -> (Sim<Packet>, netsim::NodeId, netsim::NodeId) {
        let root_addr = a([8, 0, 0, 53]);
        let tld_addr = a([12, 0, 0, 53]);
        let auth_addr = a([13, 0, 0, 53]);
        let resolver_addr = a([10, 0, 0, 53]);

        let mut root_zone = Zone::new(Name::root());
        root_zone.delegate(n("example"), vec![(n("ns.example"), tld_addr)], 86400);
        let mut root_store = ZoneStore::new();
        root_store.add_zone(root_zone);

        let mut tld_zone = Zone::new(n("example"));
        tld_zone.delegate(n("d.example"), vec![(n("ns.d.example"), auth_addr)], 3600);
        let mut tld_store = ZoneStore::new();
        tld_store.add_zone(tld_zone);

        let mut auth_zone = Zone::new(n("d.example"));
        auth_zone.add_a(n("host.d.example"), a([101, 0, 0, 5]), 300);
        let mut auth_store = ZoneStore::new();
        auth_store.add_zone(auth_zone);

        let mut sim: Sim<Packet> = Sim::new(11);
        sim.trace.enable();
        let queries = vec![query(1, "host.d.example"), query(2, "host.d.example")];
        let client = sim.add_node("client", Box::new(Tap::new(queries)));
        let resolver = sim.add_node(
            "resolver",
            Box::new(Resolver::new(resolver_addr, vec![root_addr])),
        );
        let router = sim.add_node("router", Box::new(Router::new()));
        let root = sim.add_node("root", Box::new(AuthServer::new(root_addr, root_store)));
        let tld = sim.add_node("tld", Box::new(AuthServer::new(tld_addr, tld_store)));
        let auth = sim.add_node("auth", Box::new(AuthServer::new(auth_addr, auth_store)));

        // Every endpoint is single-homed behind the router (endpoints
        // always transmit on port 0).
        let (_, r_client) = sim.connect(client, router, LinkCfg::lan());
        let cfg = LinkCfg::wan(owd).with_drop_prob(drop_prob);
        let (_, r_res) = sim.connect(resolver, router, cfg);
        let (_, r_root) = sim.connect(root, router, cfg);
        let (_, r_tld) = sim.connect(tld, router, cfg);
        let (_, r_auth) = sim.connect(auth, router, cfg);
        {
            let rt = sim.node_mut::<Router>(router);
            rt.add_route(Prefix::host(a([10, 0, 0, 1])), r_client);
            rt.add_route(Prefix::host(resolver_addr), r_res);
            rt.add_route(Prefix::new(a([8, 0, 0, 0]), 8), r_root);
            rt.add_route(Prefix::new(a([12, 0, 0, 0]), 8), r_tld);
            rt.add_route(Prefix::new(a([13, 0, 0, 0]), 8), r_auth);
        }
        (sim, client, resolver)
    }

    #[test]
    fn iterative_resolution_walks_hierarchy() {
        let (mut sim, client, resolver) = build(Ns::from_ms(20), 0.0);
        sim.schedule_timer(client, Ns::ZERO, 0);
        sim.run();
        let answers = answers(&sim, client);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].1, Some(a([101, 0, 0, 5])));
        // Three upstream round trips (root, tld, auth), each ≈ 2×(20+20) ms
        // via the router, plus processing: at least 240 ms.
        assert!(
            answers[0].0 >= Ns::from_ms(240),
            "answered at {}",
            answers[0].0
        );
        let r = sim.node_mut::<Resolver>(resolver);
        assert_eq!(r.upstream_queries, 3);
        assert_eq!(r.resolved, 1);
        assert_eq!(r.resolution_times.len(), 1);
    }

    #[test]
    fn cache_hit_is_local() {
        let (mut sim, client, resolver) = build(Ns::from_ms(20), 0.0);
        sim.schedule_timer(client, Ns::ZERO, 0);
        sim.run();
        // Second query after the first fully drains: served from cache,
        // no new upstream traffic.
        let t0 = sim.now();
        sim.schedule_timer(client, Ns::ZERO, 1);
        sim.run();
        let answers = answers(&sim, client);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[1].1, Some(a([101, 0, 0, 5])));
        // One client<->resolver round trip (the 20 ms WAN hop is on that
        // path in this topology), but no iterative walk (~240 ms).
        let second_latency = answers[1].0 - t0;
        assert!(
            second_latency < Ns::from_ms(50),
            "cache answer took {second_latency}"
        );
        let r = sim.node_mut::<Resolver>(resolver);
        assert_eq!(r.upstream_queries, 3, "no extra upstream queries");
        assert_eq!(r.cache_hits, 1);
    }

    #[test]
    fn ttl_expiry_forces_refetch() {
        let (mut sim, client, resolver) = build(Ns::from_ms(20), 0.0);
        sim.schedule_timer(client, Ns::ZERO, 0);
        sim.run();
        // A record TTL is 300 s; jump past it.
        let later = sim.now() + Ns::from_secs(301);
        sim.schedule_timer(client, later.saturating_sub(sim.now()), 1);
        sim.run();
        let r = sim.node_mut::<Resolver>(resolver);
        assert_eq!(r.cache_hits, 0);
        // NS caches (TTL 3600/86400) are still valid: only 1 more query.
        assert_eq!(r.upstream_queries, 4);
        assert_eq!(r.resolved, 2);
    }

    #[test]
    fn retransmission_recovers_from_loss() {
        let (mut sim, client, resolver) = build(Ns::from_ms(10), 0.35);
        sim.schedule_timer(client, Ns::ZERO, 0);
        sim.run_until(Ns::from_secs(30));
        let answers = answers(&sim, client);
        // With 35% loss and 3 tries/step the query usually succeeds; accept
        // either outcome but require a reply of some kind (no deadlock).
        assert_eq!(answers.len(), 1, "resolver must answer eventually");
        let r = sim.node_mut::<Resolver>(resolver);
        assert!(r.retries > 0 || r.resolved == 1);
    }

    #[test]
    fn nxdomain_propagates() {
        let (mut sim, client, _resolver) = build(Ns::from_ms(10), 0.0);
        sim.node_mut::<Tap>(client).outbox[0] = query(1, "missing.d.example");
        sim.schedule_timer(client, Ns::ZERO, 0);
        sim.run();
        let answers = answers(&sim, client);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].1, None);
    }

    #[test]
    fn fail_over_switches_uplink() {
        // Resolver between two taps; every transmission leaves on the
        // uplink, which `fail_over` re-points from port 0 to port 1.
        let resolver_addr = a([10, 0, 0, 53]);
        let q1 = query(1, "a.d.example");
        let q2 = query(2, "b.d.example");
        let mut sim: Sim<Packet> = Sim::new(3);
        let res = sim.add_node(
            "resolver",
            Box::new(Resolver::new(resolver_addr, vec![a([8, 0, 0, 53])])),
        );
        let s0 = sim.add_node("s0", Box::new(Tap::new(vec![q1])));
        let s1 = sim.add_node("s1", Box::new(Tap::new(vec![q2])));
        sim.connect(res, s0, LinkCfg::ipc()); // resolver port 0
        sim.connect(res, s1, LinkCfg::ipc()); // resolver port 1
        sim.node_mut::<Resolver>(res)
            .set_failover(1, a([10, 0, 0, 201]));
        sim.schedule_timer(s0, Ns::ZERO, 0); // q1 before failover
        sim.schedule_call::<Resolver>(res, Ns::from_ms(1), Resolver::fail_over);
        sim.schedule_timer(s1, Ns::from_ms(2), 0); // q2 after failover
        sim.run_until(Ns::from_ms(5));
        let first_out = sim.node_ref::<Tap>(s0).received.len();
        let second_out = sim.node_ref::<Tap>(s1).received.len();
        assert!(first_out >= 1, "pre-failover upstream must exit port 0");
        assert!(second_out >= 1, "post-failover upstream must exit port 1");
    }

    /// `pick_server` as it was before it walked borrowed ancestors: a
    /// fresh parent `Name` per step. Kept as the walk's oracle.
    fn pick_by_parents(r: &Resolver, qname: &Name, now: Ns) -> Ipv4Address {
        let mut zone = qname.clone();
        loop {
            if let Some(c) = r.ns_cache.get(&zone) {
                if c.expires > now && !c.servers.is_empty() {
                    return c.servers[0];
                }
            }
            if zone.is_root() {
                break;
            }
            zone = zone.parent();
        }
        r.root_hints[0]
    }

    /// Names with a label count drawn from `depths`, over a three-letter
    /// alphabet, so that cached zones nest and queries fall under them often.
    fn arb_name(depths: core::ops::Range<usize>) -> impl Strategy<Value = Name> {
        prop::collection::vec(0usize..3, depths).prop_map(|labels| {
            let text: Vec<&str> = labels.iter().map(|&l| ["a", "b", "c"][l]).collect();
            n(&text.join("."))
        })
    }

    proptest! {
        #[test]
        fn pick_server_matches_parent_walk(
            cached in prop::collection::vec((arb_name(0..5), 0u64..4, 0usize..3), 0..12),
            queries in prop::collection::vec(arb_name(0..6), 1..12),
        ) {
            // Entries expire at 0–3 s and hold 0–2 servers; the clock
            // reads 2 s, so some entries are stale and some are empty.
            let now = Ns::from_secs(2);
            let mut r = Resolver::new(a([10, 0, 0, 53]), vec![a([8, 0, 0, 53])]);
            for (i, (zone, expires, servers)) in cached.iter().enumerate() {
                let servers = (0..*servers).map(|k| a([9, 0, i as u8, k as u8])).collect();
                let expires = Ns::from_secs(*expires);
                r.ns_cache.insert(zone.clone(), CachedNs { servers, expires });
            }
            for q in queries.iter().chain(cached.iter().map(|(zone, _, _)| zone)) {
                prop_assert_eq!(r.pick_server(q, now), pick_by_parents(&r, q, now));
            }
        }
    }
}
