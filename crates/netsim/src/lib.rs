//! `netsim` — a deterministic discrete-event network simulator.
//!
//! The engine drives [`Node`] implementations connected by duplex
//! [links](link) with configurable one-way delay, bandwidth, finite FIFO
//! queues (tail drop) and fault injection (random drop / corruption), under
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
//!   `send`, `set_timer`, `trace`, counters and the RNG.
//!
//! ```
//! use netsim::{Ctx, LinkCfg, Node, Ns, Sim};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: usize, bytes: Vec<u8>) {
//!         ctx.send(port, bytes); // bounce it back
//!     }
//!     fn as_any(&mut self) -> &mut dyn std::any::Any { self }
//!     fn as_any_ref(&self) -> &dyn std::any::Any { self }
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
//!     fn as_any(&mut self) -> &mut dyn std::any::Any { self }
//!     fn as_any_ref(&self) -> &dyn std::any::Any { self }
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
pub mod time;
pub mod trace;
pub mod update;

pub use counters::{CounterId, Counters, LazyCounter};
pub use link::{DownPolicy, LinkCfg, LinkStats};
pub use node::{Ctx, Node, NodeId, PortId};
pub use payload::Payload;
pub use sim::Sim;
pub use time::Ns;
pub use trace::{Trace, TraceEvent};
pub use update::ScheduledUpdates;
