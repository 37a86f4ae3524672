//! LISP+ALT: the aggregated overlay mapping system
//! (draft-fuller-lisp-alt).
//!
//! ALT routers form an overlay (BGP sessions over GRE tunnels in the
//! draft) advertising aggregated EID prefixes. A Map-Request enters the
//! overlay at the ITR's gateway and is routed hop-by-hop toward the
//! authoritative ETR, which replies *directly* to the ITR over native
//! forwarding. Each overlay hop is a real UDP message across the underlay
//! plus a per-hop processing delay — the well-known ALT latency cost is
//! the sum of these hops (experiments E2/E3 expose it).

use crate::guard::RequestGuard;
use inet::stack::IpStack;
use inet::{LpmTrie, Prefix};
use lispwire::packet::{CtlMsg, Packet};
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, LazyCounter, Node, Ns, PortId};

/// Per-hop processing delay of every [`AltRouter`] (BGP-over-GRE
/// overlays are not fast paths).
const PROCESSING_DELAY: Ns = Ns::from_us(500);

/// One ALT overlay router.
pub struct AltRouter {
    stack: IpStack,
    /// Overlay routing: EID prefix → next ALT router address.
    routes: LpmTrie<Ipv4Address>,
    /// Local delivery: EID prefix → authoritative ETR address.
    delivery: LpmTrie<Ipv4Address>,
    /// Optional ingress guard (enable on the ITR-facing gateway only:
    /// per-source rate limiting of requests entering the overlay).
    pub guard: Option<RequestGuard>,
    /// Requests forwarded to another overlay router.
    pub overlay_hops: u64,
    /// Requests delivered to an ETR.
    pub delivered: u64,
    /// Requests dropped (no route or hop budget exhausted).
    pub dropped: u64,
    /// Scheduled re-registrations applied so far.
    pub updates_applied: u64,
    ctr_hop_exhausted: LazyCounter,
    ctr_no_route: LazyCounter,
}

impl AltRouter {
    /// A router at `addr` with no routes.
    pub fn new(addr: Ipv4Address) -> Self {
        Self {
            stack: IpStack::new(addr),
            routes: LpmTrie::new(),
            delivery: LpmTrie::new(),
            guard: None,
            overlay_hops: 0,
            delivered: 0,
            dropped: 0,
            updates_applied: 0,
            ctr_hop_exhausted: LazyCounter::new(),
            ctr_no_route: LazyCounter::new(),
        }
    }

    /// Re-point the delivery entry for `prefix` at `etr` (the site
    /// re-registering after a locator failure; only meaningful on the
    /// router that carries the delivery entry). The dynamics subsystem
    /// calls it at a set time through `Sim::schedule_call` (DESIGN.md §7).
    pub fn update_delivery(&mut self, ctx: &mut Ctx<'_, Packet>, prefix: Prefix, etr: Ipv4Address) {
        self.delivery.insert(prefix, etr);
        self.updates_applied += 1;
        ctx.trace(format_args!(
            "alt {} re-registers delivery {prefix} -> {etr}",
            self.stack.addr
        ));
    }

    /// Advertise: requests for `prefix` go to overlay neighbour `next`.
    pub fn add_overlay_route(&mut self, prefix: Prefix, next: Ipv4Address) -> &mut Self {
        self.routes.insert(prefix, next);
        self
    }

    /// Attach: requests for `prefix` are delivered to ETR `etr`.
    pub fn add_delivery(&mut self, prefix: Prefix, etr: Ipv4Address) -> &mut Self {
        self.delivery.insert(prefix, etr);
        self
    }

    /// This router's overlay address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }
}

impl Node<Packet> for AltRouter {
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, Packet>) {
        // Volatile: the guard's learned windows (requests mid-processing
        // are deferred sends the engine drops while the node is down).
        // Overlay routes and delivery entries are BGP advertisements the
        // neighbours re-announce on session re-establishment — modelled
        // as surviving configuration.
        if let Some(guard) = &mut self.guard {
            guard.clear_learned();
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let Packet::LispCtl {
            ip,
            ports: p,
            msg: CtlMsg::Request(mut req),
        } = pkt
        else {
            return;
        };
        if ip.dst != self.stack.addr || p.dst != ports::LISP_CONTROL {
            return;
        }
        if let Some(guard) = &mut self.guard {
            if !guard.admit(req.source_eid, ctx.now()) {
                ctx.trace(format_args!(
                    "alt {} rate-limits {}",
                    self.stack.addr, req.source_eid
                ));
                return;
            }
        }

        // Deliver if an attached site covers the target.
        if let Some(&etr) = self.delivery.lookup_value(req.target_eid) {
            self.delivered += 1;
            ctx.trace(format_args!(
                "alt {} delivers request for {} to etr {}",
                self.stack.addr, req.target_eid, etr
            ));
            let pkt = self.stack.ctl(
                ports::LISP_CONTROL,
                etr,
                ports::LISP_CONTROL,
                CtlMsg::Request(req),
            );
            ctx.send_after(PROCESSING_DELAY, 0, pkt);
            return;
        }
        // Otherwise route across the overlay.
        if req.hop_count == 0 {
            self.dropped += 1;
            self.ctr_hop_exhausted.add(ctx, "alt.hop_exhausted", 1);
            return;
        }
        match self.routes.lookup_value(req.target_eid) {
            Some(&next) => {
                req.hop_count -= 1;
                self.overlay_hops += 1;
                ctx.trace(format_args!(
                    "alt {} forwards request for {} to {}",
                    self.stack.addr, req.target_eid, next
                ));
                let pkt = self.stack.ctl(
                    ports::LISP_CONTROL,
                    next,
                    ports::LISP_CONTROL,
                    CtlMsg::Request(req),
                );
                ctx.send_after(PROCESSING_DELAY, 0, pkt);
            }
            None => {
                self.dropped += 1;
                self.ctr_no_route.add(ctx, "alt.no_route", 1);
            }
        }
    }
}

/// Build a linear ALT chain covering `site_prefix → etr`: the first router
/// is the ITR-facing gateway, the last delivers to the ETR. Returns the
/// routers in chain order (caller attaches them to the underlay).
pub fn linear_chain(
    addrs: &[Ipv4Address],
    site_prefix: Prefix,
    etr: Ipv4Address,
) -> Vec<AltRouter> {
    let mut routers: Vec<AltRouter> = Vec::with_capacity(addrs.len());
    for (i, &addr) in addrs.iter().enumerate() {
        let mut r = AltRouter::new(addr);
        if i + 1 < addrs.len() {
            r.add_overlay_route(site_prefix, addrs[i + 1]);
        } else {
            r.add_delivery(site_prefix, etr);
        }
        routers.push(r);
    }
    routers
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet::Router;
    use netsim::{LinkCfg, NodeId, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    use lispwire::lispctl::MapRequest;

    type Tap = netsim::testkit::Tap<Packet>;

    /// The Map-Request an ITR at 10.0.0.1 sends into the overlay at `entry`.
    fn request(target_eid: Ipv4Address, entry: Ipv4Address, hop_count: u16) -> Packet {
        let req = MapRequest {
            nonce: 9,
            source_eid: a([100, 0, 0, 1]),
            target_eid,
            itr_rloc: a([10, 0, 0, 1]),
            hop_count,
        };
        IpStack::new(a([10, 0, 0, 1])).ctl(
            ports::LISP_CONTROL,
            entry,
            ports::LISP_CONTROL,
            CtlMsg::Request(req),
        )
    }

    /// The Map-Requests a fake ETR at `addr` (a sink that replies
    /// nothing) received.
    fn requests_at(tap: &Tap, addr: Ipv4Address) -> Vec<&MapRequest> {
        tap.packets()
            .filter_map(|pkt| match pkt {
                Packet::LispCtl {
                    ip,
                    msg: CtlMsg::Request(req),
                    ..
                } if ip.dst == addr => Some(req),
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

    #[test]
    fn chain_routes_to_etr() {
        let mut sim: Sim<Packet> = Sim::new(9);
        sim.trace.enable();
        let core = sim.add_node("core", Box::new(Router::new()));
        let chain_addrs = [a([9, 0, 0, 1]), a([9, 0, 0, 2]), a([9, 0, 0, 3])];
        let site = Prefix::new(a([101, 0, 0, 0]), 8);
        let etr_addr = a([12, 0, 0, 1]);
        let routers = linear_chain(&chain_addrs, site, etr_addr);

        let mut wiring = Vec::new();
        for (i, r) in routers.into_iter().enumerate() {
            let id = sim.add_node(&format!("alt{i}"), Box::new(r));
            wiring.push((id, chain_addrs[i]));
        }
        let etr = sim.add_node("etr", Box::new(Tap::sink()));
        wiring.push((etr, etr_addr));
        let inj_addr = a([10, 0, 0, 1]);
        let req = request(a([101, 0, 0, 7]), chain_addrs[0], 16);
        let inj = sim.add_node("itr", Box::new(Tap::new(vec![req])));
        wiring.push((inj, inj_addr));
        wire_star(&mut sim, core, &wiring, Ns::from_ms(10));

        sim.schedule_timer(inj, Ns::ZERO, 0);
        sim.run();

        let got = requests_at(sim.node_ref::<Tap>(etr), etr_addr);
        assert_eq!(got.len(), 1);
        // Two overlay hops consumed.
        assert_eq!(got[0].hop_count, 16 - 2);
        assert_eq!(
            got[0].itr_rloc, inj_addr,
            "reply path is native: itr_rloc preserved"
        );
        // ≈ 4 underlay RTlegs * (10+10) ms + processing ≥ 80 ms.
        assert!(sim.now() >= Ns::from_ms(80));
    }

    #[test]
    fn hop_budget_exhaustion_drops() {
        let mut sim: Sim<Packet> = Sim::new(9);
        let core = sim.add_node("core", Box::new(Router::new()));
        let chain_addrs = [a([9, 0, 0, 1]), a([9, 0, 0, 2]), a([9, 0, 0, 3])];
        let site = Prefix::new(a([101, 0, 0, 0]), 8);
        let etr_addr = a([12, 0, 0, 1]);
        let routers = linear_chain(&chain_addrs, site, etr_addr);
        let mut wiring = Vec::new();
        let mut ids = Vec::new();
        for (i, r) in routers.into_iter().enumerate() {
            let id = sim.add_node(&format!("alt{i}"), Box::new(r));
            ids.push(id);
            wiring.push((id, chain_addrs[i]));
        }
        let etr = sim.add_node("etr", Box::new(Tap::sink()));
        wiring.push((etr, etr_addr));
        let inj_addr = a([10, 0, 0, 1]);
        // Budget 1: can cross alt0 -> alt1 but alt1 cannot forward again.
        let req = request(a([101, 0, 0, 7]), chain_addrs[0], 1);
        let inj = sim.add_node("itr", Box::new(Tap::new(vec![req])));
        wiring.push((inj, inj_addr));
        wire_star(&mut sim, core, &wiring, Ns::from_ms(5));
        sim.schedule_timer(inj, Ns::ZERO, 0);
        sim.run();
        assert!(requests_at(sim.node_ref::<Tap>(etr), etr_addr).is_empty());
        assert_eq!(sim.node_ref::<AltRouter>(ids[1]).dropped, 1);
        assert_eq!(sim.counter("alt.hop_exhausted"), 1);
    }

    #[test]
    fn no_route_drops() {
        let mut sim: Sim<Packet> = Sim::new(9);
        let r_addr = a([9, 0, 0, 1]);
        let alt = sim.add_node("alt", Box::new(AltRouter::new(r_addr)));
        let req = request(a([55, 0, 0, 7]), r_addr, 16);
        let inj = sim.add_node("itr", Box::new(Tap::new(vec![req])));
        sim.connect(inj, alt, LinkCfg::wan(Ns::from_ms(5)));
        sim.schedule_timer(inj, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<AltRouter>(alt).dropped, 1);
        assert_eq!(sim.counter("alt.no_route"), 1);
    }
}
