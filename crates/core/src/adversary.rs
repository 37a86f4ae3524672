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
//! The roles themselves ([`AttackerSpec`]) are declared in the spec
//! layer; `ScenarioSpec::build` compiles them here, into scripted nodes
//! or, for overclaiming, into an xTR config flag.

use crate::plane::{attach_to_core, attach_to_site};
use crate::spec::{AttackerSpec, ScenarioSpec, SiteRole, SiteSpec, SiteWorld};
use inet::stack::IpStack;
use inet::{Prefix, PrefixSet};
use lispwire::lispctl::{MapRecord, MapReply};
use lispwire::packet::{CtlMsg, Packet};
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, LinkCfg, Node, NodeId, Ns, PortId, Sim};

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

/// Add a scripted node for each of `spec`'s node-backed attacker roles,
/// in spec order, and schedule every scripted packet *now*, at build
/// time, through the deterministic (time, seq) timer order. The nodes
/// come after all legitimate infrastructure, so attacker-free specs
/// build node-for-node identical worlds.
pub(crate) fn add_attackers(
    spec: &ScenarioSpec,
    seed: u64,
    sim: &mut Sim<Packet>,
    core: NodeId,
    sites: &[SiteWorld],
    eid_space: &PrefixSet,
) -> Vec<NodeId> {
    let of_role = |role| sites.iter().filter(move |s: &&SiteWorld| s.role == role);
    let client = (sites.iter().position(|s| s.role == SiteRole::Client))
        .expect("adversarial scenarios need a client site");
    let mut nodes = Vec::new();
    for (ai, atk) in spec.attackers.iter().enumerate() {
        // A role's script goes out in bursts of `burst` packets, `rate`
        // bursts a second, from inside the site router `home` or, with
        // none, from off-site at the core.
        let (kind, addr, script, rate, burst, home) = match *atk {
            // A compromised host inside the client site scans randomized
            // EIDs: live cross-site targets thrash the cache, dead ones
            // burn the resolver's full retry budget.
            AttackerSpec::MapRequestFlood {
                rate_per_sec,
                packets,
            } => {
                let addr = spec.topology.sites[client].eid_with_last_octet(6);
                let stack = IpStack::new(addr);
                let mut rng = ScanRng::new(seed ^ (ai as u64 + 1));
                let live: Vec<Ipv4Address> = (of_role(SiteRole::Server))
                    .flat_map(|s| s.dest_eids.iter().copied())
                    .collect();
                let space = eid_space.prefixes();
                let in_any_site = |a: Ipv4Address| sites.iter().any(|s| s.eid_prefix.contains(a));
                let script: Vec<Packet> = (0..packets)
                    .map(|_| {
                        let want_live = rng.pick(2) == 0;
                        let dead = (0..32).find_map(|_| {
                            let p = space[rng.pick(space.len())];
                            let cand = p.nth_host(rng.next_u64() as u32);
                            (!in_any_site(cand)).then_some(cand)
                        });
                        let target = match (want_live, dead) {
                            (true, _) | (false, None) if !live.is_empty() => {
                                live[rng.pick(live.len())]
                            }
                            (_, Some(d)) => d,
                            _ => space[0].nth_host(rng.next_u64() as u32),
                        };
                        stack.udp(9666, target, 9666, vec![0u8; 40])
                    })
                    .collect();
                let home = Some(sites[client].router);
                ("flood", addr, script, rate_per_sec, 1, home)
            }
            // An off-site node sprays spoofed Map-Replies at every
            // client-site xTR, claiming every server prefix with its own
            // RLOC as locator; hijacked tunnels land back on it.
            AttackerSpec::CachePoison {
                rate_per_sec,
                rounds,
            } => {
                let addr = Ipv4Address::new(66, 6, 0, (ai + 1) as u8);
                let stack = IpStack::new(addr);
                let mut rng = ScanRng::new(seed ^ (0x5000 + ai as u64));
                let shots: Vec<(Ipv4Address, Prefix)> = (of_role(SiteRole::Client))
                    .flat_map(|s| s.xtr_rlocs.iter())
                    .flat_map(|&v| of_role(SiteRole::Server).map(move |s| (v, s.eid_prefix)))
                    .collect();
                let ttl = spec.mapping_ttl_minutes;
                let script: Vec<Packet> = (0..rounds)
                    .flat_map(|_| &shots)
                    .map(|&(victim, claim)| {
                        let record = MapRecord {
                            prefix_len: claim.len(),
                            ..MapRecord::host(claim.addr(), addr, ttl)
                        };
                        // The attacker cannot see nonces in flight; it
                        // guesses (verification, when armed, rejects these).
                        let nonce = rng.next_u64();
                        let records = vec![record];
                        let reply = CtlMsg::Reply(MapReply { nonce, records });
                        stack.ctl(ports::LISP_CONTROL, victim, ports::LISP_CONTROL, reply)
                    })
                    .collect();
                let per_round = shots.len() as u64;
                ("poison", addr, script, rate_per_sec, per_round, None)
            }
            // Overclaiming is a flag on the site's own xTRs: `overclaim`.
            AttackerSpec::Overclaim { .. } => continue,
        };
        let packets = script.len() as u64;
        let name = format!("attacker-{kind}-{ai}");
        let node = sim.add_node(&name, Box::new(AttackNode::new(addr, script)));
        match home {
            Some(router) => {
                attach_to_site(sim, router, node, LinkCfg::lan(), [Prefix::host(addr)]);
            }
            None => {
                let topo = &spec.topology;
                let link = LinkCfg::wan(topo.mapsys_owd.unwrap_or(topo.infra_owd));
                let route = Prefix::new(Ipv4Address::new(66, 0, 0, 0), 8);
                attach_to_core(sim, core, node, route, link);
            }
        }
        let period = Ns((1e9 / rate).max(1.0) as u64);
        for k in 0..packets {
            let at = Ns::from_ms(50).saturating_add(Ns(period.0 * (k / burst)));
            sim.schedule_timer(node, at, k);
        }
        nodes.push(node);
    }
    nodes
}

/// The too-broad prefix site `s`'s own xTRs answer Map-Requests with
/// when an Overclaim role names the site (the last such role wins).
pub(crate) fn overclaim(attackers: &[AttackerSpec], s: &SiteSpec) -> Option<Prefix> {
    attackers.iter().rev().find_map(|atk| match atk {
        AttackerSpec::Overclaim { site, prefix_len } if *site == s.name => {
            Some(Prefix::new(s.eid_prefix.addr(), *prefix_len))
        }
        _ => None,
    })
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
