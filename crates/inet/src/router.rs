//! A transit IPv4 router node.
//!
//! On every packet: decrement the TTL (dropping expired packets), look
//! the destination up in the longest-prefix-match table and forward
//! out the matched port. Unroutable packets are dropped and counted.
//! Packets are typed [`Packet`] values — nothing is parsed per hop.
//!
//! A small fixed per-packet processing delay (`PROCESSING_DELAY`, held
//! with `Ctx::send_after`) models lookup cost.

use crate::addr::Prefix;
use crate::lpm::LpmTrie;
use crate::stack::forward_hop;
use lispwire::Packet;
use netsim::{Counters, Ctx, Node, Ns, PortId};

/// Per-packet lookup/processing delay of every [`Router`].
const PROCESSING_DELAY: Ns = Ns::from_us(1);

/// A transit router forwarding by longest-prefix match.
pub struct Router {
    routes: LpmTrie<PortId>,
    /// Packets dropped: no route.
    pub no_route_drops: u64,
    /// Packets dropped: TTL expired.
    pub ttl_drops: u64,
}

impl Router {
    /// A router with no routes.
    pub fn new() -> Self {
        Self {
            routes: LpmTrie::new(),
            no_route_drops: 0,
            ttl_drops: 0,
        }
    }

    /// Install a route: packets to `prefix` leave via `port`.
    pub fn add_route(&mut self, prefix: Prefix, port: PortId) -> &mut Self {
        self.routes.insert(prefix, port);
        self
    }

    /// Install the default route.
    pub fn set_default_route(&mut self, port: PortId) -> &mut Self {
        self.add_route(Prefix::DEFAULT, port)
    }

    /// Number of installed routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Node<Packet> for Router {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, mut pkt: Packet) {
        if !forward_hop(&mut pkt) {
            self.ttl_drops += 1;
            return;
        }
        match self.routes.lookup_value(pkt.dst()).copied() {
            Some(out_port) => ctx.send_after(PROCESSING_DELAY, out_port, pkt),
            None => self.no_route_drops += 1,
        }
    }

    fn counters(&self, out: &mut Counters) {
        out.add("router.ttl_drops", self.ttl_drops);
        out.add("router.no_route_drops", self.no_route_drops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::IpStack;
    use lispwire::Ipv4Address;
    use netsim::{LinkCfg, Sim};

    type Tap = netsim::testkit::Tap<Packet>;

    fn addr(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    #[test]
    fn forwards_by_lpm_across_two_routers() {
        // src -- r1 -- r2 -- dst ; a second sink hangs off r1 for 11/8.
        let src_ip = addr([10, 0, 0, 1]);
        let dst_ip = addr([12, 0, 0, 9]);
        let alt_ip = addr([11, 0, 0, 9]);

        let stack = IpStack::new(src_ip);
        let p1 = stack.udp(1000, dst_ip, 2000, b"to-12".to_vec());
        let p2 = stack.udp(1000, alt_ip, 2000, b"to-11".to_vec());

        let mut sim: Sim<Packet> = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::new(vec![p1, p2])));
        let r1 = sim.add_node("r1", Box::new(Router::new()));
        let r2 = sim.add_node("r2", Box::new(Router::new()));
        let dst = sim.add_node("dst", Box::new(Tap::sink()));
        let alt = sim.add_node("alt", Box::new(Tap::sink()));

        let (_, r1_from_src) = sim.connect(src, r1, LinkCfg::lan());
        let (r1_to_r2, r2_from_r1) = sim.connect(r1, r2, LinkCfg::wan(Ns::from_ms(10)));
        let (r2_to_dst, _) = sim.connect(r2, dst, LinkCfg::lan());
        let (r1_to_alt, _) = sim.connect(r1, alt, LinkCfg::lan());
        let _ = r1_from_src;
        let _ = r2_from_r1;

        sim.node_mut::<Router>(r1)
            .add_route(Prefix::new(addr([12, 0, 0, 0]), 8), r1_to_r2)
            .add_route(Prefix::new(addr([11, 0, 0, 0]), 8), r1_to_alt);
        sim.node_mut::<Router>(r2)
            .add_route(Prefix::new(addr([12, 0, 0, 0]), 8), r2_to_dst);

        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.schedule_timer(src, Ns::from_ms(1), 1);
        sim.run();

        let got_dst: Vec<_> = sim.node_ref::<Tap>(dst).packets().collect();
        assert_eq!(got_dst.len(), 1);
        match got_dst[0] {
            Packet::Udp { payload, .. } => assert_eq!(payload, b"to-12"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sim.node_ref::<Tap>(alt).received.len(), 1);

        // TTL decremented twice on the r1->r2 path, once on the alt path.
        assert_eq!(got_dst[0].ip().ttl, 64 - 2);
        assert_eq!(sim.node_ref::<Tap>(alt).received[0].1.ip().ttl, 64 - 1);
    }

    #[test]
    fn unroutable_dropped_and_counted() {
        let stack = IpStack::new(addr([10, 0, 0, 1]));
        let pkt = stack.udp(1, addr([99, 0, 0, 1]), 2, b"x".to_vec());
        let mut sim: Sim<Packet> = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::new(vec![pkt])));
        let r = sim.add_node("r", Box::new(Router::new()));
        sim.connect(src, r, LinkCfg::lan());
        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<Router>(r).no_route_drops, 1);
        assert_eq!(sim.counters().get("router.no_route_drops"), 1);
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut stack = IpStack::new(addr([10, 0, 0, 1]));
        stack.ttl = 1;
        let pkt = stack.udp(1, addr([12, 0, 0, 1]), 2, b"x".to_vec());
        let mut sim: Sim<Packet> = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::new(vec![pkt])));
        let r = sim.add_node("r", Box::new(Router::new()));
        let snk = sim.add_node("s", Box::new(Tap::sink()));
        let (_, _) = sim.connect(src, r, LinkCfg::lan());
        let (r_out, _) = sim.connect(r, snk, LinkCfg::lan());
        sim.node_mut::<Router>(r).set_default_route(r_out);
        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<Router>(r).ttl_drops, 1);
        assert!(sim.node_ref::<Tap>(snk).received.is_empty());
    }

    #[test]
    fn processing_delay_applied() {
        let stack = IpStack::new(addr([10, 0, 0, 1]));
        let pkt = stack.udp(1, addr([12, 0, 0, 1]), 2, b"x".to_vec());
        // One LAN hop, for reference: src -- snk.
        let mut sim: Sim<Packet> = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::new(vec![pkt.clone()])));
        let snk = sim.add_node("s", Box::new(Tap::sink()));
        sim.connect(src, snk, LinkCfg::lan());
        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();
        let hop = sim.node_ref::<Tap>(snk).received[0].0;
        // Two LAN hops through a router: src -- r -- snk.
        let mut sim: Sim<Packet> = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::new(vec![pkt])));
        let r = sim.add_node("r", Box::new(Router::new()));
        let snk = sim.add_node("s", Box::new(Tap::sink()));
        sim.connect(src, r, LinkCfg::lan());
        let (r_out, _) = sim.connect(r, snk, LinkCfg::lan());
        sim.node_mut::<Router>(r).set_default_route(r_out);
        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();
        let received = &sim.node_ref::<Tap>(snk).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, hop * 2 + PROCESSING_DELAY);
    }
}
