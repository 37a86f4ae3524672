//! Engine-level packet conservation: every packet handed to
//! `Ctx::send` or `Ctx::send_after` ends in exactly one state —
//! delivered once, counted in one named drop counter, or still pending
//! in the event queue — in random small worlds with finite queues,
//! random loss, links that go down, and nodes that crash and restart.
//! Once the queue drains, no slab slot holds a body.

use netsim::{Ctx, LinkCfg, Node, NodeId, Ns, PortId, Sim};
use proptest::prelude::*;

/// SplitMix64: the world generator's own stream, independent of the
/// engine's RNG.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Sends one packet per timer (out of port `token % ports`) and, on
/// every even-id arrival that has made fewer than two hops, one more
/// packet back out of the arrival port — at once, or (for every other
/// such echo) through `Ctx::send_after` with a delay of up to 5 ms.
/// Every packet carries a unique id in its first eight bytes and its
/// hop count in the ninth.
struct Host {
    id: u64,
    next: u64,
    /// `(packet id, what send returned)` for every `Ctx::send` call;
    /// a deferral is recorded as accepted.
    sent: Vec<(u64, bool)>,
    /// When each `Ctx::send_after` call falls due.
    deferred: Vec<Ns>,
    /// This host's outages, `[crash, restart)`; an open one ends at
    /// `Ns::MAX`.
    outages: Vec<(Ns, Ns)>,
    /// Ids of every packet delivered here.
    got: Vec<u64>,
    size: usize,
}

impl Host {
    fn new(id: u64, size: usize) -> Self {
        Host {
            id,
            next: 0,
            sent: Vec::new(),
            deferred: Vec::new(),
            outages: Vec::new(),
            got: Vec::new(),
            size,
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, port: PortId, hops: u8, delay: Option<Ns>) {
        let id = (self.id << 32) | self.next;
        self.next += 1;
        let mut bytes = vec![0u8; self.size.max(9)];
        bytes[..8].copy_from_slice(&id.to_be_bytes());
        bytes[8] = hops;
        let ok = match delay {
            Some(delay) => {
                ctx.send_after(delay, port, bytes);
                self.deferred.push(ctx.now().saturating_add(delay));
                true
            }
            None => ctx.send(port, bytes),
        };
        self.sent.push((id, ok));
    }

    /// Deferrals that are still held at `now`, and those that fell due
    /// while this host was down. Every admin event is scheduled before
    /// the run, so at one instant a crash or restart takes effect
    /// before a deferral falls due.
    fn deferrals(&self, now: Ns) -> (u64, u64) {
        let held = self.deferred.iter().filter(|&&due| due > now).count();
        let down = self.deferred.iter().filter(|&&due| {
            due <= now
                && self
                    .outages
                    .iter()
                    .any(|&(crash, up)| crash <= due && due < up)
        });
        (held as u64, down.count() as u64)
    }
}

impl Node for Host {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if ctx.port_count() > 0 {
            let port = token as usize % ctx.port_count();
            self.send(ctx, port, 0, None);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, bytes: Vec<u8>) {
        let id = u64::from_be_bytes(bytes[..8].try_into().expect("8-byte id"));
        self.got.push(id);
        if id % 2 == 0 && bytes[8] < 2 {
            let delay = (id % 4 == 2).then(|| Ns::from_us(1 + id.wrapping_mul(7919) % 5_000));
            self.send(ctx, port, bytes[8] + 1, delay);
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.outages.push((ctx.now(), Ns::MAX));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let outage = self.outages.last_mut().expect("a restart follows a crash");
        outage.1 = ctx.now();
    }
}

/// A random world: `2..=5` hosts, random links with small queues and
/// loss, timers only on host 0 (which never crashes, so the engine's
/// `node_down_drops` counts packets alone), link outages, and crashes
/// of the other hosts.
fn world(seed: u64) -> (Sim, Vec<NodeId>, Ns) {
    let mut g = Gen(seed);
    let mut sim: Sim = Sim::new(seed);
    let hosts: Vec<NodeId> = (0..2 + g.below(4))
        .map(|i| {
            let host = Host::new(i, 9 + g.below(1500) as usize);
            sim.add_node(&format!("h{i}"), Box::new(host))
        })
        .collect();
    let n = hosts.len() as u64;
    for _ in 0..=g.below(2 * n) {
        let a = hosts[g.below(n) as usize];
        let b = hosts[g.below(n) as usize];
        if a == b {
            continue;
        }
        let cfg = LinkCfg::wan(Ns::from_us(1 + g.below(2_000)))
            .with_bandwidth(1_000_000 * (1 + g.below(100)))
            .with_queue_bytes(g.below(8_000))
            .with_drop_prob([0.0, 0.0, 0.05, 0.3][g.below(4) as usize]);
        sim.connect(a, b, cfg);
    }
    let horizon = Ns::from_ms(50);
    for k in 0..g.below(200) {
        sim.schedule_timer(hosts[0], Ns(g.below(horizon.0)), k);
    }
    for _ in 0..g.below(6) {
        if sim.link_count() == 0 {
            break;
        }
        let link = g.below(sim.link_count() as u64) as usize;
        let down = Ns(g.below(horizon.0));
        sim.schedule_link_admin(down, link, false);
        sim.schedule_link_admin(down.saturating_add(Ns(g.below(horizon.0))), link, true);
    }
    for _ in 0..g.below(4) {
        let node = hosts[1 + g.below(n - 1) as usize];
        let down = Ns(g.below(horizon.0));
        sim.schedule_node_admin(down, node, false);
        sim.schedule_node_admin(down.saturating_add(Ns(g.below(horizon.0))), node, true);
    }
    (sim, hosts, horizon)
}

/// How many packets are in each end state: delivered, fault-dropped,
/// queue-dropped, down-dropped, dropped at a down node (on arrival, or
/// deferred and due during an outage), pending (in flight or
/// deferred).
fn states(sim: &Sim, hosts: &[NodeId]) -> [u64; 6] {
    let delivered = hosts
        .iter()
        .map(|&h| sim.node_ref::<Host>(h).got.len() as u64);
    [
        delivered.sum(),
        sim.total_fault_drops(),
        sim.total_queue_drops(),
        sim.total_down_drops(),
        sim.node_down_drops(),
        sim.held_packets() as u64,
    ]
}

/// Check every packet's end state at the current instant.
fn check_conservation(sim: &Sim, hosts: &[NodeId]) -> Result<(), String> {
    let mut sent = 0u64;
    let mut accepted = std::collections::BTreeSet::new();
    let mut got = Vec::new();
    for &h in hosts {
        let host = sim.node_ref::<Host>(h);
        sent += host.sent.len() as u64;
        accepted.extend(host.sent.iter().filter(|s| s.1).map(|s| s.0));
        got.extend_from_slice(&host.got);
    }
    got.sort_unstable();
    if got.windows(2).any(|w| w[0] == w[1]) {
        return Err("a packet was delivered twice".into());
    }
    if let Some(id) = got.iter().find(|id| !accepted.contains(id)) {
        return Err(format!(
            "packet {id:#x} delivered, but send reported a drop"
        ));
    }
    let states = states(sim, hosts);
    let horizon = sim.total_horizon_drops();
    if sent != states.iter().sum::<u64>() + horizon {
        return Err(format!(
            "sent {sent} != delivered, fault, queue, down, node-down, \
             pending {states:?} + horizon {horizon}"
        ));
    }
    let [delivered, fault, queue, down, node_down, pending] = states;
    let (deferred, deferred_held, deferred_down) = deferrals(sim, hosts);
    // Every packet a link accepted is delivered, dropped at a down
    // node on arrival, or still in flight: the deferrals still held or
    // due during an outage never reached a link.
    let links = (0..sim.link_count()).flat_map(|l| [sim.link_stats(l, 0), sim.link_stats(l, 1)]);
    let accepted_by_links: u64 = links.map(|s| s.tx_packets).sum();
    if accepted_by_links + deferred_held + deferred_down != delivered + node_down + pending {
        return Err(format!(
            "links accepted {accepted_by_links} + deferrals held {deferred_held} \
             + deferrals due while down {deferred_down} != delivered {delivered} \
             + node-down {node_down} + pending {pending}"
        ));
    }
    // A `false` from send is a fault, down, queue or horizon drop; only
    // deferrals handed to a link can be queue-, fault-, down- or
    // horizon-dropped after the node was told `true`.
    let refused = sent - accepted.len() as u64;
    let deferred_sent = deferred - deferred_held - deferred_down;
    let dropped = fault + down + queue + horizon;
    if refused > dropped || refused + deferred_sent < dropped {
        return Err(format!(
            "send refused {refused}, but fault + down + queue + horizon \
             drops are {dropped} with {deferred_sent} deferrals sent"
        ));
    }
    Ok(())
}

/// Every host's deferrals at the current instant: made, still held,
/// and dropped because they fell due while their host was down.
fn deferrals(sim: &Sim, hosts: &[NodeId]) -> (u64, u64, u64) {
    hosts.iter().fold((0, 0, 0), |(all, held, down), &h| {
        let host = sim.node_ref::<Host>(h);
        let (h, d) = host.deferrals(sim.now());
        (all + host.deferred.len() as u64, held + h, down + d)
    })
}

/// A packet whose arrival would saturate at `Ns::MAX`, the engine's
/// "never", is refused by `send` and counted.
#[test]
fn packet_arriving_past_the_clock_is_refused_and_counted() {
    let mut sim: Sim = Sim::new(1);
    let hosts: Vec<NodeId> = (0..2)
        .map(|i| sim.add_node(&format!("h{i}"), Box::new(Host::new(i, 10))))
        .collect();
    sim.connect(hosts[0], hosts[1], LinkCfg::wan(Ns(u64::MAX - 5)));
    sim.schedule_timer(hosts[0], Ns::from_ms(1), 0);
    sim.run();
    let host = sim.node_ref::<Host>(hosts[0]);
    assert_eq!(host.sent, vec![(0, false)]);
    assert_eq!(sim.total_horizon_drops(), 1);
    assert_eq!(sim.held_packets(), 0);
    assert_eq!(check_conservation(&sim, &hosts), Ok(()));
}

/// The generator is only as good as the states it reaches: over a
/// fixed run of seeds, every end state occurs, mid-run and at the end,
/// and deferrals are both held and dropped at a down host.
#[test]
fn generator_reaches_every_end_state() {
    let mut seen = [0u64; 8];
    for seed in 0..64 {
        let (mut sim, hosts, horizon) = world(seed);
        for step in 1..=4 {
            sim.run_until(Ns(horizon.0 * step / 4));
            let (_, held, down) = deferrals(&sim, &hosts);
            let states = states(&sim, &hosts).into_iter().chain([held, down]);
            for (total, n) in seen.iter_mut().zip(states) {
                *total += n;
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "unreached end state: {seen:?}");
}

proptest! {
    #[test]
    fn every_sent_packet_ends_in_exactly_one_state(seed in any::<u64>()) {
        let (mut sim, hosts, horizon) = world(seed);
        // Mid-run: packets in flight must be accounted for.
        for step in 1..=4 {
            sim.run_until(Ns(horizon.0 * step / 4));
            let checked = check_conservation(&sim, &hosts);
            prop_assert!(checked.is_ok(), "seed {seed:#x} at {}: {:?}", sim.now(), checked);
        }
        sim.run();
        let checked = check_conservation(&sim, &hosts);
        prop_assert!(checked.is_ok(), "seed {seed:#x} drained: {:?}", checked);
        // Drained: nothing pending, no body left behind.
        prop_assert_eq!(sim.held_packets(), 0);
        prop_assert_eq!(sim.slab_bodies(), 0);
    }
}
