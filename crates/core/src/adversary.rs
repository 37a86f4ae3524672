//! Adversarial control-plane roles (DESIGN.md §10).
//!
//! The paper argues a PCE-based control plane degrades gracefully where
//! pull-based mapping systems amplify attacker traffic. This module
//! supplies the attacker machinery the E12 experiment measures:
//!
//! * [`AttackNode`] — a scripted traffic source. Every packet it will
//!   ever send is decided at build time and scheduled through the
//!   simulator's deterministic `(time, seq)` timer order, so adversarial
//!   runs replay byte-identically at any `--jobs` level. The same node
//!   doubles as the *sink* that proves cache poisoning worked: traffic
//!   hijacked toward the attacker's RLOC is counted, not answered.
//! * [`ScanRng`] — the xorshift64* generator used to draw randomized
//!   scan targets (the Map-Request flood role) reproducibly from the
//!   scenario seed.
//!
//! The roles themselves ([`crate::spec::AttackerSpec`]) are declared in
//! the spec layer, which compiles them into a script here.

use inet::stack::IpStack;
use lispwire::packet::Packet;
use lispwire::Ipv4Address;
use netsim::{Ctx, Node, PortId};

/// Deterministic xorshift64* stream for adversarial target selection.
///
/// Not a statistical-quality RNG — just a cheap, seedable, stable stream
/// so scan scripts depend only on the scenario seed.
#[derive(Debug, Clone)]
pub struct ScanRng {
    state: u64,
}

impl ScanRng {
    /// A stream seeded from the scenario seed (zero is remapped so the
    /// generator cannot get stuck).
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform pick in `0..bound` (`bound` must be non-zero).
    pub fn pick(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A scripted adversary host.
///
/// The node holds a packet script indexed by timer token: the spec layer
/// schedules `sim.schedule_timer(node, at_k, k)` for every packet `k` at
/// build time, and the node emits `script[k]` when the timer fires.
/// Incoming tunnelled traffic (the fruit of a successful cache poisoning)
/// is absorbed and counted.
pub struct AttackNode {
    stack: IpStack,
    script: Vec<Packet>,
    /// Scripted packets actually emitted.
    pub sent: u64,
    /// Encapsulated data packets hijacked to this node by a poisoned
    /// mapping (absorbed, never delivered — pure goodput loss).
    pub hijacked_packets: u64,
    /// Other traffic arriving here (e.g. Map-Replies to a scan).
    pub absorbed: u64,
}

impl AttackNode {
    /// An attacker at `addr` with a prebuilt packet script.
    pub fn new(addr: Ipv4Address, script: Vec<Packet>) -> Self {
        Self {
            stack: IpStack::new(addr),
            script,
            sent: 0,
            hijacked_packets: 0,
            absorbed: 0,
        }
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Number of scripted packets.
    pub fn script_len(&self) -> usize {
        self.script.len()
    }
}

impl Node<Packet> for AttackNode {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        if pkt.dst() != self.stack.addr {
            return;
        }
        match pkt {
            Packet::LispData { .. } => self.hijacked_packets += 1,
            _ => self.absorbed += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        if let Some(pkt) = self.script.get(token as usize) {
            self.sent += 1;
            ctx.send(0, pkt.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lispwire::packet::{CtlMsg, Packet};
    use lispwire::{lispctl::MapRequest, ports};
    use netsim::{LinkCfg, Ns, Sim};

    type Tap = netsim::testkit::Tap<Packet>;

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    #[test]
    fn scan_rng_is_seed_deterministic() {
        let s1: Vec<u64> = {
            let mut r = ScanRng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let s2: Vec<u64> = {
            let mut r = ScanRng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let s3: Vec<u64> = {
            let mut r = ScanRng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        let mut r = ScanRng::new(0);
        assert!((0..64).all(|_| r.pick(10) < 10));
    }

    #[test]
    fn scripted_packets_fire_in_order_and_sink_counts() {
        let atk_addr = a([66, 6, 0, 1]);
        let stack = IpStack::new(atk_addr);
        let req = |n: u64| {
            stack.ctl(
                ports::LISP_CONTROL,
                a([8, 0, 0, 1]),
                ports::LISP_CONTROL,
                CtlMsg::Request(MapRequest {
                    nonce: n,
                    source_eid: a([120, 0, 0, 6]),
                    target_eid: a([120, 9, 0, 1]),
                    itr_rloc: atk_addr,
                    hop_count: 8,
                }),
            )
        };
        let script = vec![req(1), req(2), req(3)];

        let mut sim: Sim<Packet> = Sim::new(1);
        let atk = sim.add_node("attacker", Box::new(AttackNode::new(atk_addr, script)));
        let sink = sim.add_node("sink", Box::new(Tap::sink()));
        sim.connect(atk, sink, LinkCfg::lan());
        for k in 0..3u64 {
            sim.schedule_timer(atk, Ns::from_ms(10).saturating_add(Ns::from_ms(10 * k)), k);
        }
        sim.run();
        assert_eq!(sim.node_ref::<AttackNode>(atk).sent, 3);
        assert_eq!(sim.node_ref::<Tap>(sink).received.len(), 3);
    }

    #[test]
    fn hijacked_tunnel_traffic_is_absorbed_and_counted() {
        let atk_addr = a([66, 6, 0, 1]);
        let data = IpStack::new(a([10, 0, 0, 1])).udp(7000, a([120, 9, 0, 7]), 7001, vec![0; 64]);
        let tunnelled = Packet::lisp_data(
            a([10, 0, 0, 1]),
            atk_addr,
            lispwire::lisp::LispRepr::with_nonce(1, 1),
            data,
        );

        let mut sim: Sim<Packet> = Sim::new(1);
        let atk = sim.add_node("attacker", Box::new(AttackNode::new(atk_addr, vec![])));
        let src = sim.add_node("src", Box::new(Tap::new(vec![tunnelled])));
        sim.connect(src, atk, LinkCfg::lan());
        sim.schedule_timer(src, Ns::ZERO, 0);
        sim.run();
        let n = sim.node_ref::<AttackNode>(atk);
        assert_eq!(n.hijacked_packets, 1);
        assert_eq!(n.absorbed, 0);
    }
}
