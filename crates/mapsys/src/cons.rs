//! LISP-CONS: the hierarchical Content-distribution Overlay Network
//! Service (draft-meyer-lisp-cons).
//!
//! CARs (Content Access Routers, the leaves ITRs/ETRs attach to) and CDRs
//! (Content Distribution Routers, the interior) form a tree. A Map-Request
//! travels *up* from the requesting CAR until a node knows a child zone
//! covering the target, then *down* to the CAR serving the destination
//! site, which hands it to the ETR. Unlike ALT, the **reply retraces the
//! overlay path** (CONS is connection-oriented); we emulate that state
//! with an explicit record-route carried in the typed
//! [`ConsMsg`] wrapper, plus a per-leaf pending
//! table keyed by nonce.

use crate::guard::RequestGuard;
use inet::stack::IpStack;
use inet::{LpmTrie, Prefix};
use lispwire::packet::{ConsMsg, CtlMsg, Packet};
use lispwire::{ports, Ipv4Address};
use netsim::{Counters, Ctx, Node, Ns, PortId};
use std::collections::BTreeMap;

/// UDP port CONS overlay nodes use among themselves.
pub const CONS_PORT: u16 = ports::CONS;

/// Per-hop processing delay of every [`ConsNode`].
const PROCESSING_DELAY: Ns = Ns::from_us(500);

/// One CONS overlay node (CAR when it has attached sites, CDR otherwise).
pub struct ConsNode {
    stack: IpStack,
    parent: Option<Ipv4Address>,
    /// Child zones: prefix → child node address.
    children: LpmTrie<Ipv4Address>,
    /// Sites attached to this CAR: prefix → ETR address.
    serving: LpmTrie<Ipv4Address>,
    /// Pending request state at leaf CARs: nonce → (orig itr, return path).
    pending: BTreeMap<u64, (Ipv4Address, Vec<Ipv4Address>)>,
    /// Optional ingress guard: per-source rate limiting of fresh requests
    /// entering the overlay at this CAR (relayed overlay traffic on
    /// [`CONS_PORT`] is not re-charged).
    pub guard: Option<RequestGuard>,
    /// Requests moved up/down the hierarchy.
    pub overlay_hops: u64,
    /// Requests handed to an ETR.
    pub delivered: u64,
    /// Replies relayed back down the path.
    pub replies_relayed: u64,
    /// Requests dropped: no child zone, no parent.
    pub no_route: u64,
    /// Replies dropped: their nonce matches no pending request.
    pub unmatched_replies: u64,
    /// Overlay messages dropped: not a wrapped request or reply.
    pub malformed: u64,
    /// Scheduled re-registrations applied so far.
    pub updates_applied: u64,
}

impl ConsNode {
    /// A node at `addr`, optionally with a parent in the hierarchy.
    pub fn new(addr: Ipv4Address, parent: Option<Ipv4Address>) -> Self {
        Self {
            stack: IpStack::new(addr),
            parent,
            children: LpmTrie::new(),
            serving: LpmTrie::new(),
            pending: BTreeMap::new(),
            guard: None,
            overlay_hops: 0,
            delivered: 0,
            replies_relayed: 0,
            no_route: 0,
            unmatched_replies: 0,
            malformed: 0,
            updates_applied: 0,
        }
    }

    /// Re-point this CAR's served-site entry for `prefix` at `etr`
    /// (re-registration after a locator failure). The dynamics
    /// subsystem calls it at a set time through `Sim::schedule_call`
    /// (DESIGN.md §7).
    pub fn update_site(&mut self, ctx: &mut Ctx<'_, Packet>, prefix: Prefix, etr: Ipv4Address) {
        self.serving.insert(prefix, etr);
        self.updates_applied += 1;
        ctx.trace(format_args!(
            "cons {} re-registers site {prefix} -> {etr}",
            self.stack.addr
        ));
    }

    /// Register a child zone.
    pub fn add_child(&mut self, prefix: Prefix, child: Ipv4Address) -> &mut Self {
        self.children.insert(prefix, child);
        self
    }

    /// Attach a served site (makes this node a CAR for it).
    pub fn add_site(&mut self, prefix: Prefix, etr: Ipv4Address) -> &mut Self {
        self.serving.insert(prefix, etr);
        self
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Route a wrapped request one step.
    fn route_request(&mut self, ctx: &mut Ctx<'_, Packet>, mut msg: ConsMsg) {
        let CtlMsg::Request(req) = &*msg.inner else {
            self.malformed += 1;
            return;
        };
        let req = *req;
        // Serving CAR: hand to the ETR with itr_rloc rewritten to us so
        // the reply comes back through the overlay.
        if let Some(&etr) = self.serving.lookup_value(req.target_eid) {
            let mut rewritten = req;
            rewritten.itr_rloc = self.stack.addr;
            self.pending
                .insert(rewritten.nonce, (msg.orig_itr, msg.via.clone()));
            self.delivered += 1;
            ctx.trace(format_args!(
                "cons {} delivers request for {} to etr {}",
                self.stack.addr, req.target_eid, etr
            ));
            let pkt = self.stack.ctl(
                ports::LISP_CONTROL,
                etr,
                ports::LISP_CONTROL,
                CtlMsg::Request(rewritten),
            );
            ctx.send_after(PROCESSING_DELAY, 0, pkt);
            return;
        }
        // Down toward a child zone?
        let next = self
            .children
            .lookup_value(req.target_eid)
            .copied()
            .or(self.parent);
        match next {
            Some(next) => {
                msg.via.push(self.stack.addr);
                self.overlay_hops += 1;
                ctx.trace(format_args!(
                    "cons {} relays request for {} to {}",
                    self.stack.addr, req.target_eid, next
                ));
                let pkt = self
                    .stack
                    .ctl(CONS_PORT, next, CONS_PORT, CtlMsg::Cons(msg));
                ctx.send_after(PROCESSING_DELAY, 0, pkt);
            }
            None => self.no_route += 1,
        }
    }

    /// Route a wrapped reply one step back.
    fn route_reply(&mut self, ctx: &mut Ctx<'_, Packet>, mut msg: ConsMsg) {
        match msg.via.pop() {
            Some(prev) => {
                self.replies_relayed += 1;
                ctx.trace(format_args!(
                    "cons {} relays reply toward {}",
                    self.stack.addr, prev
                ));
                let pkt = self
                    .stack
                    .ctl(CONS_PORT, prev, CONS_PORT, CtlMsg::Cons(msg));
                ctx.send_after(PROCESSING_DELAY, 0, pkt);
            }
            None => {
                // We are the requester's CAR: deliver natively to the ITR.
                self.replies_relayed += 1;
                ctx.trace(format_args!(
                    "cons {} delivers reply to itr {}",
                    self.stack.addr, msg.orig_itr
                ));
                let pkt = self.stack.ctl(
                    ports::LISP_CONTROL,
                    msg.orig_itr,
                    ports::LISP_CONTROL,
                    *msg.inner,
                );
                ctx.send_after(PROCESSING_DELAY, 0, pkt);
            }
        }
    }
}

impl Node<Packet> for ConsNode {
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, Packet>) {
        // CONS is connection-oriented: the per-nonce pending table (the
        // overlay's connection state) dies with the node — replies for
        // it can never be routed back — and the engine drops the
        // messages it deferred while the node is down. The tree topology
        // and served-site entries are configuration.
        self.pending.clear();
        if let Some(guard) = &mut self.guard {
            guard.clear_learned();
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let Packet::LispCtl { ip, ports: p, msg } = pkt else {
            return;
        };
        if ip.dst != self.stack.addr {
            return;
        }
        match (p.dst, msg) {
            // Plain control traffic: a new request from an ITR, or a reply
            // from an ETR we handed a request to.
            (ports::LISP_CONTROL, CtlMsg::Request(req)) => {
                if let Some(guard) = &mut self.guard {
                    if !guard.admit(req.source_eid, ctx.now()) {
                        ctx.trace(format_args!(
                            "cons {} rate-limits {}",
                            self.stack.addr, req.source_eid
                        ));
                        return;
                    }
                }
                let msg = ConsMsg {
                    is_reply: false,
                    orig_itr: req.itr_rloc,
                    via: Vec::new(),
                    inner: Box::new(CtlMsg::Request(req)),
                };
                self.route_request(ctx, msg);
            }
            (ports::LISP_CONTROL, CtlMsg::Reply(reply)) => {
                let Some((orig_itr, via)) = self.pending.remove(&reply.nonce) else {
                    self.unmatched_replies += 1;
                    return;
                };
                let msg = ConsMsg {
                    is_reply: true,
                    orig_itr,
                    via,
                    inner: Box::new(CtlMsg::Reply(reply)),
                };
                self.route_reply(ctx, msg);
            }
            (CONS_PORT, CtlMsg::Cons(msg)) => {
                if msg.is_reply {
                    self.route_reply(ctx, msg);
                } else {
                    self.route_request(ctx, msg);
                }
            }
            (CONS_PORT, _) => self.malformed += 1,
            _ => {}
        }
    }

    fn counters(&self, out: &mut Counters) {
        out.add("cons.no_route", self.no_route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet::Router;
    use lispwire::lispctl::{Locator, MapRecord, MapReply, MapRequest};
    use lispwire::WireError;
    use netsim::{LinkCfg, NodeId, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    #[test]
    fn consmsg_roundtrip() {
        let msg = ConsMsg {
            is_reply: true,
            orig_itr: a([10, 0, 0, 1]),
            via: vec![a([9, 0, 0, 1]), a([9, 0, 0, 2])],
            inner: Box::new(CtlMsg::Request(MapRequest {
                nonce: 1,
                source_eid: a([100, 0, 0, 1]),
                target_eid: a([101, 0, 0, 1]),
                itr_rloc: a([10, 0, 0, 1]),
                hop_count: 4,
            })),
        };
        let msg = CtlMsg::Cons(msg);
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_len());
        assert_eq!(CtlMsg::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn consmsg_truncation_rejected() {
        let msg = ConsMsg {
            is_reply: false,
            orig_itr: a([1, 1, 1, 1]),
            via: vec![],
            inner: Box::new(CtlMsg::Reply(MapReply {
                nonce: 3,
                records: vec![],
            })),
        };
        let b = CtlMsg::Cons(msg).to_bytes();
        assert!(CtlMsg::from_bytes(&b[..b.len() - 2]).is_err());
        assert!(CtlMsg::from_bytes(&[0xC5]).is_err());
        let mut bad = b.clone();
        bad[0] = 0;
        assert_eq!(
            CtlMsg::from_bytes(&bad).unwrap_err(),
            WireError::UnknownType
        );
    }

    /// An ETR stub that answers Map-Requests with a Map-Reply.
    struct EtrStub {
        stack: IpStack,
        record: MapRecord,
        pub answered: u64,
    }
    impl Node<Packet> for EtrStub {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _p: PortId, pkt: Packet) {
            let Packet::LispCtl {
                ip,
                msg: CtlMsg::Request(req),
                ..
            } = pkt
            else {
                return;
            };
            if ip.dst != self.stack.addr {
                return;
            }
            self.answered += 1;
            let reply = MapReply {
                nonce: req.nonce,
                records: vec![self.record.clone()],
            };
            let pkt = self.stack.ctl(
                ports::LISP_CONTROL,
                req.itr_rloc,
                ports::LISP_CONTROL,
                CtlMsg::Reply(reply),
            );
            ctx.send(0, pkt);
        }
    }

    type Tap = netsim::testkit::Tap<Packet>;

    /// An ITR stub at 10.0.0.1: token 0 sends one request for
    /// `target_eid` to its CAR at `car`.
    fn itr_stub(car: Ipv4Address, target_eid: Ipv4Address) -> Box<Tap> {
        let req = MapRequest {
            nonce: 77,
            source_eid: a([100, 0, 0, 1]),
            target_eid,
            itr_rloc: a([10, 0, 0, 1]),
            hop_count: 32,
        };
        let pkt = IpStack::new(a([10, 0, 0, 1])).ctl(
            ports::LISP_CONTROL,
            car,
            ports::LISP_CONTROL,
            CtlMsg::Request(req),
        );
        Box::new(Tap::new(vec![pkt]))
    }

    /// The Map-Replies the ITR stub received, with their arrival times.
    fn replies(tap: &Tap) -> Vec<(Ns, &MapReply)> {
        tap.received
            .iter()
            .filter_map(|(at, pkt)| match pkt {
                Packet::LispCtl {
                    ip,
                    msg: CtlMsg::Reply(reply),
                    ..
                } if ip.dst == a([10, 0, 0, 1]) => Some((*at, reply)),
                _ => None,
            })
            .collect()
    }

    fn wire_star(sim: &mut Sim<Packet>, core: NodeId, nodes: &[(NodeId, Ipv4Address)], owd: Ns) {
        for &(node, addr) in nodes {
            let (_, port) = sim.connect(node, core, LinkCfg::wan(owd));
            sim.node_mut::<Router>(core)
                .add_route(Prefix::host(addr), port);
        }
    }

    /// Two CARs under one CDR; request from CAR-S side resolves a site
    /// attached to CAR-D; the reply retraces the overlay.
    #[test]
    fn request_up_down_reply_retraces() {
        let mut sim: Sim<Packet> = Sim::new(4);
        sim.trace.enable();
        let core = sim.add_node("core", Box::new(Router::new()));

        let car_s_addr = a([9, 1, 0, 1]);
        let cdr_addr = a([9, 0, 0, 1]);
        let car_d_addr = a([9, 2, 0, 1]);
        let etr_addr = a([12, 0, 0, 1]);
        let itr_addr = a([10, 0, 0, 1]);
        let site = Prefix::new(a([101, 0, 0, 0]), 8);

        let car_s = ConsNode::new(car_s_addr, Some(cdr_addr));
        let mut cdr = ConsNode::new(cdr_addr, None);
        cdr.add_child(site, car_d_addr);
        let mut car_d = ConsNode::new(car_d_addr, Some(cdr_addr));
        car_d.add_site(site, etr_addr);

        let record = MapRecord {
            eid_prefix: a([101, 0, 0, 0]),
            prefix_len: 8,
            ttl_minutes: 60,
            locators: vec![Locator::new(etr_addr, 1, 100)],
        };

        let n_car_s = sim.add_node("car-s", Box::new(car_s));
        let n_cdr = sim.add_node("cdr", Box::new(cdr));
        let n_car_d = sim.add_node("car-d", Box::new(car_d));
        let n_etr = sim.add_node(
            "etr",
            Box::new(EtrStub {
                stack: IpStack::new(etr_addr),
                record,
                answered: 0,
            }),
        );
        let n_itr = sim.add_node("itr", itr_stub(car_s_addr, a([101, 0, 0, 7])));

        wire_star(
            &mut sim,
            core,
            &[
                (n_car_s, car_s_addr),
                (n_cdr, cdr_addr),
                (n_car_d, car_d_addr),
                (n_etr, etr_addr),
                (n_itr, itr_addr),
            ],
            Ns::from_ms(10),
        );
        sim.schedule_timer(n_itr, Ns::ZERO, 0);
        sim.run();

        let replies = replies(sim.node_ref::<Tap>(n_itr));
        let &[(reply_at, reply)] = replies.as_slice() else {
            panic!("expected one reply, got {replies:?}");
        };
        assert_eq!(reply.nonce, 77);
        assert_eq!(reply.records[0].locators[0].rloc, etr_addr);
        // Path: itr->car_s->cdr->car_d->etr->car_d->cdr->car_s->itr
        // = 8 one-way underlay trips of 20 ms each ≥ 160 ms.
        assert!(reply_at >= Ns::from_ms(160));
        assert_eq!(sim.node_ref::<EtrStub>(n_etr).answered, 1);
        assert_eq!(sim.node_ref::<ConsNode>(n_car_d).delivered, 1);
        // Reply relayed by car_d, cdr and car_s.
        let relayed: u64 = [n_car_s, n_cdr, n_car_d]
            .iter()
            .map(|&n| sim.node_ref::<ConsNode>(n).replies_relayed)
            .sum();
        assert_eq!(relayed, 3);
    }

    #[test]
    fn unknown_target_dropped_at_root() {
        let mut sim: Sim<Packet> = Sim::new(4);
        let cdr_addr = a([9, 0, 0, 1]);
        let cdr = sim.add_node("cdr", Box::new(ConsNode::new(cdr_addr, None)));
        let itr = sim.add_node("itr", itr_stub(cdr_addr, a([55, 0, 0, 1])));
        sim.connect(itr, cdr, LinkCfg::wan(Ns::from_ms(5)));
        sim.schedule_timer(itr, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<ConsNode>(cdr).no_route, 1);
        assert!(replies(sim.node_ref::<Tap>(itr)).is_empty());
    }
}
