//! Engine throughput workloads shared by the Criterion bench
//! (`benches/engine.rs`) and the JSON trajectory emitter
//! (`bin/bench_engine_json.rs`), so both time exactly the same cells.
//!
//! Two shapes stress different parts of the hot path (DESIGN.md §1, §9):
//!
//! * **ping-pong** — two nodes, one link, one packet in flight: the
//!   queue stays tiny, so per-event constant costs (dispatch, context
//!   setup, link math) dominate.
//! * **64-node star** — one hub echoing to 63 leaves, 63 packets in
//!   flight: the heap holds ~64 events, so sift depth and payload moves
//!   matter too. With the default 8 000 rounds this processes >1M
//!   events per run.
//!
//! The cells carry a [`Frame`] payload — a typed descriptor whose wire
//! length is *computed*, exactly like the product's `lispwire::Packet`
//! payloads since the typed-packet refactor. The event loop moves a
//! two-word value per packet and allocates nothing.

use netsim::{Ctx, LinkCfg, Node, Ns, Payload, Sim};

/// A typed bench payload: `len` simulated wire bytes, no backing buffer.
/// This is the engine-bench analogue of the product's typed packets —
/// byte accounting without byte shuffling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Simulated wire length in bytes.
    pub len: usize,
}

impl Payload for Frame {
    fn wire_len(&self) -> usize {
        self.len
    }

    fn encode(&self) -> Vec<u8> {
        vec![0u8; self.len]
    }

    fn corrupt(&mut self, _idx: usize, _bit: u8) {}
}

/// Wire length of every bench frame (matches the pre-refactor 64-byte
/// buffers, so link timing — and therefore event counts — are identical).
const FRAME_LEN: usize = 64;

/// Two nodes bouncing one packet back and forth `remaining` times each.
struct PingPong {
    remaining: u64,
}

impl Node<Frame> for PingPong {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Frame>, _t: u64) {
        ctx.send(0, Frame { len: FRAME_LEN });
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Frame>, port: usize, frame: Frame) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(port, frame);
        }
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

/// Run the two-node ping-pong cell (`2 * pairs + 1` events) and return
/// the number of events the engine processed.
pub fn run_ping_pong(pairs: u64) -> u64 {
    let mut sim: Sim<Frame> = Sim::new(1);
    let a = sim.add_node("a", Box::new(PingPong { remaining: pairs }));
    let z = sim.add_node("z", Box::new(PingPong { remaining: pairs }));
    sim.connect(a, z, LinkCfg::lan());
    sim.schedule_timer(a, Ns::ZERO, 0);
    sim.run();
    sim.events_processed()
}

/// The hub of the star: echo every packet back out the port it came in.
struct Hub;

impl Node<Frame> for Hub {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Frame>, port: usize, frame: Frame) {
        ctx.send(port, frame);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

/// A leaf: fires one packet at start, re-sends on every echo until its
/// round budget is spent.
struct Leaf {
    rounds: u64,
}

impl Node<Frame> for Leaf {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Frame>, _t: u64) {
        ctx.send(0, Frame { len: FRAME_LEN });
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Frame>, port: usize, frame: Frame) {
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.send(port, frame);
        }
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

/// Run the star cell: one hub plus `leaves` leaf nodes, each doing
/// `rounds` round-trips (≈ `2 * leaves * rounds` events). Returns the
/// number of events the engine processed.
pub fn run_star(leaves: usize, rounds: u64) -> u64 {
    run_star_over(leaves, rounds, LinkCfg::lan())
}

/// The star cell over 200 µs WAN links: pushes land 200 µs ahead, not
/// a few µs, so many cross the ~1 ms bucket year into the calendar
/// queue's rung — the one `Frame` cell that does (DESIGN.md §12).
pub fn run_star_wan(leaves: usize, rounds: u64) -> u64 {
    run_star_over(leaves, rounds, LinkCfg::wan(Ns::from_us(200)))
}

fn run_star_over(leaves: usize, rounds: u64, link: LinkCfg) -> u64 {
    let mut sim: Sim<Frame> = Sim::new(1);
    let hub = sim.add_node("hub", Box::new(Hub));
    for i in 0..leaves {
        let leaf = sim.add_node(&format!("leaf{i}"), Box::new(Leaf { rounds }));
        sim.connect(leaf, hub, link);
        sim.schedule_timer(leaf, Ns::ZERO, 0);
    }
    sim.run();
    sim.events_processed()
}

/// A typed-packet ping-pong: two nodes bouncing one `lispwire::Packet`
/// end to end through the engine — the Criterion `wire/packet_dispatch`
/// cell, measuring full typed dispatch (engine + variant match + send)
/// with zero per-hop serialization.
struct PacketPingPong {
    remaining: u64,
}

impl Node<lispwire::Packet> for PacketPingPong {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, lispwire::Packet>, _t: u64) {
        let pkt = lispwire::Packet::udp(
            lispwire::Ipv4Address::new(100, 0, 0, 5),
            7000,
            lispwire::Ipv4Address::new(101, 0, 0, 7),
            7001,
            vec![0u8; 36],
        );
        ctx.send(0, pkt);
    }
    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, lispwire::Packet>,
        port: usize,
        pkt: lispwire::Packet,
    ) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(port, pkt);
        }
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

/// Run the typed-packet ping-pong cell and return the number of events
/// the engine processed.
pub fn run_packet_ping_pong(pairs: u64) -> u64 {
    let mut sim: Sim<lispwire::Packet> = Sim::new(1);
    let a = sim.add_node("a", Box::new(PacketPingPong { remaining: pairs }));
    let z = sim.add_node("z", Box::new(PacketPingPong { remaining: pairs }));
    sim.connect(a, z, LinkCfg::lan());
    sim.schedule_timer(a, Ns::ZERO, 0);
    sim.run();
    sim.events_processed()
}

/// Leaves in the standard star cell (64 nodes total with the hub).
pub const STAR_LEAVES: usize = 63;

/// Rounds per leaf in the standard star cell (>1M events total).
pub const STAR_ROUNDS: u64 = 8_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_wire_len_matches_encode() {
        let f = Frame { len: FRAME_LEN };
        assert_eq!(f.wire_len(), f.encode().len());
    }

    #[test]
    fn packet_ping_pong_counts_events() {
        assert_eq!(run_packet_ping_pong(100), 202);
    }

    #[test]
    fn ping_pong_event_count() {
        // One kick-off timer, 2 deliveries per round trip, and the
        // final unanswered delivery.
        assert_eq!(run_ping_pong(100), 202);
    }

    #[test]
    fn star_event_count_exceeds_budget() {
        // 4 leaves * 10 rounds: each leaf fires a timer, then every
        // round trip is leaf→hub→leaf (2 deliveries) plus the final
        // unanswered echo pair accounting.
        let events = run_star(4, 10);
        assert!(events >= 4 * 10 * 2, "got {events}");
        // The standard cell comfortably clears one million events.
        let per_leaf = 2 * STAR_ROUNDS + 2;
        assert!(STAR_LEAVES as u64 * per_leaf >= 1_000_000);
    }
}
