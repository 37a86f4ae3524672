//! Map-Resolver / Map-Server: the single-indirection pull baseline.
//!
//! The ITR sends its Map-Request to the map-resolver, which knows the
//! authoritative ETR for every registered prefix and forwards the request
//! there; the ETR Map-Replies directly to the ITR. Resolution latency is
//! therefore `OWD(ITR,MR) + OWD(MR,ETR) + OWD(ETR,ITR)` plus processing.

use crate::api::MappingDb;
use crate::guard::RequestGuard;
use inet::stack::IpStack;
use inet::{LpmTrie, Prefix};
use lispwire::packet::{CtlMsg, Packet};
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, Node, Ns, PortId};

/// Per-request processing delay of every [`MapResolver`].
const PROCESSING_DELAY: Ns = Ns::from_us(50);

/// The map-resolver node.
pub struct MapResolver {
    stack: IpStack,
    table: LpmTrie<Ipv4Address>,
    /// Optional ingress guard: per-source rate limiting plus negative
    /// caching of unresolvable targets (DESIGN.md §10).
    pub guard: Option<RequestGuard>,
    /// Requests forwarded to an authoritative ETR.
    pub forwarded: u64,
    /// Requests for unregistered prefixes (dropped; ITR will retry and
    /// eventually give up — LISP sends a negative reply in later drafts,
    /// draft-08 behaviour is silence).
    pub unresolved: u64,
    /// Scheduled re-registrations applied so far.
    pub updates_applied: u64,
}

impl MapResolver {
    /// A resolver at `addr` seeded from the shared database.
    pub fn new(addr: Ipv4Address, db: &MappingDb) -> Self {
        let mut table = LpmTrie::new();
        for site in db.sites() {
            table.insert(site.prefix, site.etr_addr);
        }
        Self {
            stack: IpStack::new(addr),
            table,
            guard: None,
            forwarded: 0,
            unresolved: 0,
            updates_applied: 0,
        }
    }

    /// Re-register `prefix` to `etr` (a site re-homing its mapping
    /// after a locator failure — the pull-refresh half of the dynamics
    /// model, DESIGN.md §7). The dynamics subsystem calls it at a set
    /// time through `Sim::schedule_call`.
    pub fn update_site(&mut self, ctx: &mut Ctx<'_, Packet>, prefix: Prefix, etr: Ipv4Address) {
        self.table.insert(prefix, etr);
        self.updates_applied += 1;
        ctx.trace(format_args!("map-resolver re-registers {prefix} -> {etr}"));
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }
}

impl Node<Packet> for MapResolver {
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, Packet>) {
        // Volatile: the guard's learned windows (half-processed
        // forwards are deferred sends the engine drops while the node is
        // down). The registration table is provisioned state (seeded
        // from the site database, like stable storage) and survives.
        if let Some(guard) = &mut self.guard {
            guard.clear_learned();
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let Packet::LispCtl {
            ip,
            ports: p,
            msg: CtlMsg::Request(req),
        } = pkt
        else {
            return;
        };
        if ip.dst != self.stack.addr || p.dst != ports::LISP_CONTROL {
            return;
        }
        if let Some(guard) = &mut self.guard {
            if !guard.admit(req.source_eid, ctx.now()) {
                ctx.trace(format_args!("map-resolver rate-limits {}", req.source_eid));
                return;
            }
            if guard.known_unresolvable(req.target_eid, ctx.now()) {
                ctx.trace(format_args!(
                    "map-resolver negative-cache drop for {}",
                    req.target_eid
                ));
                return;
            }
        }
        match self.table.lookup_value(req.target_eid) {
            Some(&etr) => {
                self.forwarded += 1;
                ctx.trace(format_args!(
                    "map-resolver forwards request for {} to {}",
                    req.target_eid, etr
                ));
                let pkt = self.stack.ctl(
                    ports::LISP_CONTROL,
                    etr,
                    ports::LISP_CONTROL,
                    CtlMsg::Request(req),
                );
                ctx.send_after(PROCESSING_DELAY, 0, pkt);
            }
            None => {
                self.unresolved += 1;
                ctx.trace(format_args!(
                    "map-resolver has no entry for {}",
                    req.target_eid
                ));
                if let Some(guard) = &mut self.guard {
                    guard.note_unresolvable(req.target_eid, ctx.now());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SiteEntry;
    use inet::{Prefix, Router};
    use lispdp::{CpMode, MissPolicy, Xtr, XtrConfig};
    use lispwire::lispctl::MapRequest;
    use netsim::{LinkCfg, Sim};

    type Tap = netsim::testkit::Tap<Packet>;

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    /// A Map-Request from the ITR at 10.0.0.1 to the resolver at 8.0.0.1.
    fn map_request(nonce: u64, target_eid: Ipv4Address) -> Packet {
        let req = MapRequest {
            nonce,
            source_eid: a([100, 0, 0, 1]),
            target_eid,
            itr_rloc: a([10, 0, 0, 1]),
            hop_count: 8,
        };
        IpStack::new(a([10, 0, 0, 1])).ctl(
            ports::LISP_CONTROL,
            a([8, 0, 0, 1]),
            ports::LISP_CONTROL,
            CtlMsg::Request(req),
        )
    }

    /// Full pull resolution: host packet -> ITR miss -> MR -> ETR -> reply.
    #[test]
    fn end_to_end_resolution_via_mrms() {
        let mut sim: Sim<Packet> = Sim::new(3);
        sim.trace.enable();
        let eid_space = inet::PrefixSet::new(vec![Prefix::new(a([100, 0, 0, 0]), 6)]);

        let mut db = MappingDb::new();
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([12, 0, 0, 1]),
            60,
        ));

        // Site S sender host.
        let data =
            IpStack::new(a([100, 0, 0, 5])).udp(7000, a([101, 0, 0, 7]), 7001, b"hello".to_vec());
        let src = sim.add_node("src", Box::new(Tap::new(vec![data])));
        let dst = sim.add_node("dst", Box::new(Tap::sink()));

        let mut cfg_s = XtrConfig::new(
            a([10, 0, 0, 1]),
            Prefix::new(a([100, 0, 0, 0]), 8),
            eid_space.clone(),
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 1])),
            },
        );
        cfg_s.miss_policy = MissPolicy::Queue { max_packets: 8 };
        let xtr_s = sim.add_node("xtr-s", Box::new(Xtr::new(cfg_s)));

        let cfg_d = XtrConfig::new(
            a([12, 0, 0, 1]),
            Prefix::new(a([101, 0, 0, 0]), 8),
            eid_space,
            CpMode::Pull {
                map_resolver: Some(a([8, 0, 0, 1])),
            },
        );
        let xtr_d = sim.add_node("xtr-d", Box::new(Xtr::new(cfg_d)));

        let mr = sim.add_node(
            "map-resolver",
            Box::new(MapResolver::new(a([8, 0, 0, 1]), &db)),
        );
        let core = sim.add_node("core", Box::new(Router::new()));

        sim.connect(src, xtr_s, LinkCfg::lan());
        sim.connect(dst, xtr_d, LinkCfg::lan());
        let (_, p_s) = sim.connect(xtr_s, core, LinkCfg::wan(Ns::from_ms(25)));
        let (_, p_d) = sim.connect(xtr_d, core, LinkCfg::wan(Ns::from_ms(25)));
        let (_, p_mr) = sim.connect(mr, core, LinkCfg::wan(Ns::from_ms(15)));
        {
            let r = sim.node_mut::<Router>(core);
            r.add_route(Prefix::new(a([10, 0, 0, 0]), 8), p_s);
            r.add_route(Prefix::new(a([12, 0, 0, 0]), 8), p_d);
            r.add_route(Prefix::new(a([8, 0, 0, 0]), 8), p_mr);
        }

        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();

        assert_eq!(sim.node_ref::<Tap>(dst).received.len(), 1);
        assert_eq!(sim.node_ref::<MapResolver>(mr).forwarded, 1);
        let x = sim.node_mut::<Xtr>(xtr_s);
        assert_eq!(x.stats.map_replies_received, 1);
        assert_eq!(x.queue_delays.len(), 1);
        // Resolution latency ≈ ITR->MR (25+15) + MR->ETR (15+25) + ETR->ITR (25+25) = 130 ms.
        assert!(
            x.queue_delays[0] >= Ns::from_ms(130),
            "delay {}",
            x.queue_delays[0]
        );
        assert!(
            x.queue_delays[0] < Ns::from_ms(200),
            "delay {}",
            x.queue_delays[0]
        );
        let xd = sim.node_mut::<Xtr>(xtr_d);
        assert_eq!(xd.stats.map_requests_answered, 1);
    }

    #[test]
    fn scheduled_update_repoints_resolution() {
        // Before the scheduled re-registration the resolver forwards to
        // the old ETR; afterwards to the new one — pull-refresh dynamics.
        let mut sim: Sim<Packet> = Sim::new(4);
        let mut db = MappingDb::new();
        let site = Prefix::new(a([101, 0, 0, 0]), 8);
        db.register(SiteEntry::single(site, a([12, 0, 0, 1]), 60));
        let resolver = MapResolver::new(a([8, 0, 0, 1]), &db);
        let mr = sim.add_node("mr", Box::new(resolver));
        sim.schedule_call::<MapResolver>(mr, Ns::from_ms(500), move |r, ctx| {
            r.update_site(ctx, site, a([13, 0, 0, 1]))
        });
        let old_etr = sim.add_node("old-etr", Box::new(Tap::sink()));
        let new_etr = sim.add_node("new-etr", Box::new(Tap::sink()));
        let target = a([101, 0, 0, 7]);
        let requests = vec![map_request(0, target), map_request(1, target)];
        let asker = sim.add_node("asker", Box::new(Tap::new(requests)));
        let core = sim.add_node("core", Box::new(Router::new()));
        let (_, p_mr) = sim.connect(mr, core, LinkCfg::wan(Ns::from_ms(5)));
        let (_, p_old) = sim.connect(old_etr, core, LinkCfg::wan(Ns::from_ms(5)));
        let (_, p_new) = sim.connect(new_etr, core, LinkCfg::wan(Ns::from_ms(5)));
        let (_, p_ask) = sim.connect(asker, core, LinkCfg::wan(Ns::from_ms(5)));
        {
            let r = sim.node_mut::<Router>(core);
            r.add_route(Prefix::host(a([8, 0, 0, 1])), p_mr);
            r.add_route(Prefix::host(a([12, 0, 0, 1])), p_old);
            r.add_route(Prefix::host(a([13, 0, 0, 1])), p_new);
            r.add_route(Prefix::host(a([10, 0, 0, 1])), p_ask);
        }
        sim.schedule_timer(asker, Ns::ZERO, 0); // pre-update request
        sim.schedule_timer(asker, Ns::from_secs(1), 1); // post-update request
        sim.run();
        let got = |etr, addr| {
            let tap = sim.node_ref::<Tap>(etr);
            tap.packets().filter(|p| p.dst() == addr).count()
        };
        assert_eq!(got(old_etr, a([12, 0, 0, 1])), 1);
        assert_eq!(got(new_etr, a([13, 0, 0, 1])), 1);
        assert_eq!(sim.node_ref::<MapResolver>(mr).updates_applied, 1);
    }

    #[test]
    fn unregistered_prefix_counted() {
        let mut sim: Sim<Packet> = Sim::new(3);
        let db = MappingDb::new();
        let mr = sim.add_node("mr", Box::new(MapResolver::new(a([8, 0, 0, 1]), &db)));
        let request = map_request(5, a([101, 0, 0, 1]));
        let asker = sim.add_node("asker", Box::new(Tap::new(vec![request])));
        sim.connect(asker, mr, LinkCfg::wan(Ns::from_ms(5)));
        sim.schedule_timer(asker, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<MapResolver>(mr).unresolved, 1);
        assert_eq!(sim.node_ref::<MapResolver>(mr).forwarded, 0);
    }
}
