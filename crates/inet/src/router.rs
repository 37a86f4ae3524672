//! A transit IPv4 router node.
//!
//! On every packet: verify (header-region corruption fails the hop, like
//! a bad header checksum), decrement the TTL (dropping expired packets),
//! look the destination up in the longest-prefix-match table and forward
//! out the matched port. Unroutable packets are dropped and counted.
//! Packets are typed [`Packet`] values — nothing is parsed per hop.
//!
//! A small fixed per-packet processing delay models lookup cost; it is
//! configurable so experiments can explore its effect.

use crate::addr::Prefix;
use crate::lpm::LpmTrie;
use crate::stack::forward_hop;
use lispwire::Packet;
use netsim::{Ctx, LazyCounter, Node, Ns, PortId};
use std::collections::VecDeque;

/// A transit router forwarding by longest-prefix match.
pub struct Router {
    routes: LpmTrie<PortId>,
    processing_delay: Ns,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped: no route.
    pub no_route_drops: u64,
    /// Packets dropped: TTL expired.
    pub ttl_drops: u64,
    /// Packets dropped: malformed / bad checksum.
    pub malformed_drops: u64,
    pending: VecDeque<(PortId, Packet)>,
    ctr_ttl: LazyCounter,
    ctr_malformed: LazyCounter,
    ctr_no_route: LazyCounter,
}

const TOKEN_FORWARD: u64 = u64::MAX - 0xF0F0;

impl Router {
    /// A router with a default 1 µs lookup/processing delay.
    pub fn new() -> Self {
        Self::with_processing_delay(Ns::from_us(1))
    }

    /// A router with an explicit per-packet processing delay.
    pub fn with_processing_delay(processing_delay: Ns) -> Self {
        Self {
            routes: LpmTrie::new(),
            processing_delay,
            forwarded: 0,
            no_route_drops: 0,
            ttl_drops: 0,
            malformed_drops: 0,
            pending: VecDeque::new(),
            ctr_ttl: LazyCounter::new(),
            ctr_malformed: LazyCounter::new(),
            ctr_no_route: LazyCounter::new(),
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
        match forward_hop(&mut pkt) {
            Ok(()) => {}
            Err(lispwire::WireError::Malformed) => {
                self.ttl_drops += 1;
                self.ctr_ttl.add(ctx, "router.ttl_drops", 1);
                return;
            }
            Err(_) => {
                self.malformed_drops += 1;
                self.ctr_malformed.add(ctx, "router.malformed_drops", 1);
                return;
            }
        }
        match self.routes.lookup_value(pkt.dst()).copied() {
            Some(out_port) => {
                self.forwarded += 1;
                if self.processing_delay == Ns::ZERO {
                    ctx.send(out_port, pkt);
                } else {
                    self.pending.push_back((out_port, pkt));
                    ctx.set_timer(self.processing_delay, TOKEN_FORWARD);
                }
            }
            None => {
                self.no_route_drops += 1;
                self.ctr_no_route.add(ctx, "router.no_route_drops", 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        if token == TOKEN_FORWARD {
            if let Some((port, pkt)) = self.pending.pop_front() {
                ctx.send(port, pkt);
            }
        }
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
        assert_eq!(sim.counter("router.no_route_drops"), 1);
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
    fn corrupted_packet_dropped() {
        use netsim::Payload;
        let stack = IpStack::new(addr([10, 0, 0, 1]));
        let mut pkt = stack.udp(1, addr([12, 0, 0, 1]), 2, b"x".to_vec());
        Payload::corrupt(&mut pkt, 13, 6); // damage the header region
        let mut sim: Sim<Packet> = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::new(vec![pkt])));
        let r = sim.add_node("r", Box::new(Router::new()));
        let snk = sim.add_node("s", Box::new(Tap::sink()));
        sim.connect(src, r, LinkCfg::lan());
        let (r_out, _) = sim.connect(r, snk, LinkCfg::lan());
        sim.node_mut::<Router>(r).set_default_route(r_out);
        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<Router>(r).malformed_drops, 1);
        assert!(sim.node_ref::<Tap>(snk).received.is_empty());
    }

    #[test]
    fn processing_delay_applied() {
        let stack = IpStack::new(addr([10, 0, 0, 1]));
        let pkt = stack.udp(1, addr([12, 0, 0, 1]), 2, b"x".to_vec());
        let run_with = |delay: Ns| -> Ns {
            let mut sim: Sim<Packet> = Sim::new(1);
            let src = sim.add_node("src", Box::new(Tap::new(vec![pkt.clone()])));
            let r = sim.add_node("r", Box::new(Router::with_processing_delay(delay)));
            let snk = sim.add_node("s", Box::new(Tap::sink()));
            sim.connect(src, r, LinkCfg::lan());
            let (r_out, _) = sim.connect(r, snk, LinkCfg::lan());
            sim.node_mut::<Router>(r).set_default_route(r_out);
            sim.schedule_timer(src, Ns::ZERO, 0);
            sim.run();
            assert_eq!(sim.node_ref::<Tap>(snk).received.len(), 1);
            sim.now()
        };
        let fast = run_with(Ns::ZERO);
        let slow = run_with(Ns::from_ms(1));
        assert_eq!(slow - fast, Ns::from_ms(1));
    }
}
