//! `netsim` — a deterministic discrete-event network simulator.
//!
//! The engine drives [`Node`] implementations connected by duplex
//! [links](link) with configurable one-way delay, bandwidth, finite FIFO
//! queues (tail drop) and fault injection (random drop), under
//! a virtual nanosecond clock. All randomness flows from a single seeded
//! RNG, so a run is reproducible bit-for-bit from its seed.
//!
//! Design notes (following the smoltcp philosophy of simplicity over
//! cleverness):
//!
//! * Packets are **typed payloads** ([`payload::Payload`]): the engine is
//!   generic over the payload type and needs only its computed wire
//!   length for link timing — product code carries `lispwire::Packet`
//!   values end to end with zero per-hop serialization, while tests and
//!   benches use plain `Vec<u8>` (the default payload).
//! * Events are totally ordered by `(time, sequence)`; same-time events
//!   fire in scheduling order, so runs are deterministic.
//! * Nodes interact with the world only through [`Ctx`], which exposes
//!   `send`, `send_after`, `set_timer`, `trace`, counters and the RNG. The world
//!   changes a node's state at a set time with [`Sim::schedule_call`].
//! * Results are read back from the nodes themselves: [`Node`] has
//!   [`std::any::Any`] as a supertrait, so [`Sim::node_ref`] /
//!   [`Sim::node_mut`] downcast a stored node to its concrete type and a
//!   node implements only the hooks it handles — no downcast methods.
//! * Tests that only send prebuilt packets and record what arrives use
//!   the shared [`testkit::Tap`] rather than a node of their own.
//!
//! ```
//! use netsim::{Ctx, LinkCfg, Node, Ns, Sim};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: usize, bytes: Vec<u8>) {
//!         ctx.send(port, bytes); // bounce it back
//!     }
//! }
//!
//! struct Pinger { pub got_reply: bool }
//! impl Node for Pinger {
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
//!         ctx.send(0, b"ping".to_vec());
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: usize, _bytes: Vec<u8>) {
//!         self.got_reply = true;
//!     }
//! }
//!
//! let mut sim: Sim = Sim::new(1);
//! let a = sim.add_node("pinger", Box::new(Pinger { got_reply: false }));
//! let b = sim.add_node("echo", Box::new(Echo));
//! sim.connect(a, b, LinkCfg::wan(Ns::from_ms(10)));
//! sim.schedule_timer(a, Ns::ZERO, 0);
//! sim.run();
//! assert!(sim.node_ref::<Pinger>(a).got_reply);
//! assert!(sim.now() >= Ns::from_ms(20)); // two one-way delays plus serialisation
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod calq;
pub mod counters;
pub mod link;
pub mod node;
pub mod par;
pub mod payload;
pub mod sim;
pub mod testkit;
pub mod time;
pub mod trace;

pub use counters::{CounterId, Counters, LazyCounter};
pub use link::{LinkCfg, LinkStats};
pub use node::{Ctx, Node, NodeId, PortId};
pub use payload::Payload;
pub use sim::Sim;
pub use time::Ns;
pub use trace::{Trace, TraceEvent};
