//! The [`Node`] behaviour trait and the [`Ctx`] handle through which nodes
//! interact with the simulation.

use crate::counters::{CounterId, Counters};
use crate::link::{Transmitter, TxOutcome};
use crate::payload::Payload;
use crate::sim::{EventKind, EventQueue};
use crate::time::Ns;
use crate::trace::{NodeNames, Trace};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::any::Any;
use std::fmt;

/// Identifies a node within a simulation.
pub type NodeId = usize;

/// Identifies one of a node's attachment points (interfaces), in the order
/// the node was connected.
pub type PortId = usize;

/// Behaviour of a simulated element (host, router, DNS server, xTR, PCE…),
/// generic over the packet [`Payload`] it exchanges (default: raw bytes;
/// product nodes implement `Node<lispwire::Packet>`).
///
/// Every method has a default, so a node implements only the hooks it
/// handles. [`Any`] is a supertrait: experiment code reads a node back
/// after a run with [`crate::Sim::node_ref`] / [`crate::Sim::node_mut`],
/// which upcast the stored `dyn Node` to `dyn Any` and downcast it to
/// the concrete type — an implementation writes no downcast code. A
/// test that only needs to send prebuilt packets and record arrivals
/// uses [`crate::testkit::Tap`] instead of a node of its own.
///
/// Nodes must be [`Send`], so a [`crate::Sim`] — and the world that
/// owns it — stays movable into a [`crate::par::par_map`] worker. Node
/// state is only ever touched by one thread at a time, so this costs
/// implementations nothing beyond not holding `Rc`/`RefCell`-style
/// thread-bound handles.
pub trait Node<P: Payload = Vec<u8>>: Any + Send {
    /// Called once when the simulation starts (before any event).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// A packet arrived on `port`.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, P>, _port: PortId, _pkt: P) {}

    /// A timer set via [`Ctx::set_timer`] (or externally via
    /// `Sim::schedule_timer`) fired with its token.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, P>, _token: u64) {}

    /// The node crashed (`Sim::schedule_node_admin` / `Sim::set_node_up`
    /// with `up == false`). State-loss policy (DESIGN.md §13):
    /// implementations clear **volatile** state here — caches, pending
    /// requests, in-flight bookkeeping, learned registrations — and keep
    /// **static configuration** (addresses, prefixes, peer lists).
    /// Packets held by [`Ctx::send_after`] live in the engine, not in
    /// the node, so there is no outbox to clear here: the engine drops
    /// every timer, deferred send and call that falls due while the
    /// node is down, and one due after the restart still fires (a
    /// deferred send is then sent). So [`Node::on_restart`] must re-arm
    /// periodic machinery whose next tick the outage may have
    /// swallowed, and a periodic chain whose tick survives a short
    /// outage must tell its own timers from the re-armed ones.
    /// Default: no-op (an immortal-by-convention node).
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// The node restarted after a crash (`up == true` transition).
    /// Implementations re-arm timers and re-announce themselves (an xTR
    /// re-arms RLOC probing, a NERD authority re-pushes its database).
    /// Default: no-op.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// Former downcast hook, now done by the [`Any`] supertrait. Kept
    /// only so existing overrides still compile; calling it warns.
    #[deprecated(note = "`Node: Any`; read nodes with `Sim::node_mut`")]
    fn as_any(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// Former shared downcast hook, now done by the [`Any`] supertrait.
    /// Kept only so existing overrides still compile; calling it warns.
    #[deprecated(note = "`Node: Any`; read nodes with `Sim::node_ref`")]
    fn as_any_ref(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }
}

/// Internal: where a port leads — which peer node/port and which
/// transmitter index carries packets in that direction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortBinding {
    pub peer_node: NodeId,
    pub peer_port: EventPort,
    pub tx_index: usize,
}

/// A [`PortId`] as queued events carry it: 32 bits, so a packet event's
/// slab slot is its payload plus 16 bytes (checked once, at `connect`).
pub(crate) type EventPort = u32;

/// The handle through which a node interacts with the simulation while
/// handling an event.
pub struct Ctx<'a, P: Payload = Vec<u8>> {
    pub(crate) now: Ns,
    pub(crate) node: NodeId,
    /// Every node's name: read only when a trace line is kept.
    pub(crate) names: &'a NodeNames,
    pub(crate) ports: &'a [PortBinding],
    pub(crate) transmitters: &'a mut [Transmitter],
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) trace: &'a mut Trace,
    pub(crate) counters: &'a mut Counters,
    pub(crate) queue: &'a mut EventQueue<P>,
}

impl<'a, P: Payload> Ctx<'a, P> {
    /// The current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of ports this node has.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Send `pkt` out of `port`. Queueing, serialisation, propagation
    /// and fault injection are applied by the link — all of it computed
    /// from [`Payload::wire_len`], never from materialized bytes;
    /// delivery to the peer is scheduled automatically. Returns `false`
    /// if the packet was dropped (link down, fault injection, queue
    /// full, or an arrival past the end of the clock).
    ///
    /// # Panics
    /// Panics if `port` is not connected.
    pub fn send(&mut self, port: PortId, pkt: P) -> bool {
        let binding = self.ports[port];
        let tx = &mut self.transmitters[binding.tx_index];
        // Administratively-down link: drop before fault injection (a dead
        // link consumes no randomness, so runs with all links up are
        // bit-identical to the pre-dynamics engine).
        if !tx.up {
            tx.stats.down_drops += 1;
            return false;
        }
        // Fault injection: random drop.
        if tx.cfg.drop_prob > 0.0 && self.rng.random_bool(tx.cfg.drop_prob) {
            tx.stats.fault_drops += 1;
            return false;
        }
        match tx.offer(self.now, pkt.wire_len()) {
            TxOutcome::Deliver { arrival } => {
                // Claim the slot first and build the event in the call
                // that stores it: the packet moves once, from this
                // frame into the slab (DESIGN.md §12).
                if let Some(claim) = self.queue.claim(arrival) {
                    let port = binding.peer_port;
                    claim.fill(binding.peer_node, EventKind::Packet { port, payload: pkt });
                }
                true
            }
            TxOutcome::Dropped => false,
        }
    }

    /// Send `pkt` out of `port` after `delay` — the one way to hold a
    /// packet for a processing time. The engine keeps the packet in its
    /// event queue, addressed to this node, and calls [`Ctx::send`]
    /// with it when `now + delay` comes round, in `(time, seq)` order
    /// with every other event. A deferred send is delivered like a
    /// timer: if it falls due while this node is down it is dropped and
    /// counted in [`crate::Sim::node_down_drops`]; one due after a
    /// restart is sent. Each deferral keeps its own delay, whatever
    /// else the node holds. A send that would fall due at the end of
    /// the clock is refused and counted in the port's
    /// [`crate::LinkStats::horizon_drops`], as [`Ctx::send`] counts an
    /// arrival there.
    ///
    /// # Panics
    /// Panics, here rather than when the send falls due, if `port` is
    /// not connected.
    pub fn send_after(&mut self, delay: Ns, port: PortId, pkt: P) {
        let tx = self.ports[port].tx_index;
        match self.queue.claim(self.now.saturating_add(delay)) {
            // Built in the call that stores it, as in `send`: the packet
            // moves once into the slab. `connect` checked that every
            // port fits an `EventPort`.
            Some(claim) => claim.fill(
                self.node,
                EventKind::Deferred {
                    port: port as EventPort,
                    payload: pkt,
                },
            ),
            None => self.transmitters[tx].stats.horizon_drops += 1,
        }
    }

    /// Set a timer to fire after `delay` with `token`. Delays that
    /// would overflow the clock saturate to [`Ns::MAX`], which the
    /// engine treats as "never" — such timers do not fire.
    pub fn set_timer(&mut self, delay: Ns, token: u64) {
        let at = self.now.saturating_add(delay);
        self.queue.push(at, self.node, EventKind::Timer { token });
    }

    /// Record a trace message. **Lazy**: `msg` is an unformatted
    /// [`format_args!`] value, rendered to a `String` only when the
    /// event will be retained — tracing enabled *and* the trace not yet
    /// full. With tracing off (every timed run) a call costs one test
    /// and formats nothing, so handlers may trace on their per-packet
    /// path. An eagerly built `String` is not accepted: write
    /// `ctx.trace(format_args!("…"))`, never `format!`.
    #[inline]
    pub fn trace(&mut self, msg: fmt::Arguments<'_>) {
        self.trace.push(self.now, self.node, self.names, msg);
    }

    /// Increment the counter behind an id from [`Ctx::counter_id`] /
    /// [`crate::Sim::register_counter`] by `n` — a plain array add.
    #[inline]
    pub fn count_id(&mut self, id: CounterId, n: u64) {
        self.counters.add(id, n);
    }

    /// Intern `name` and return its [`CounterId`] (idempotent; typically
    /// called once from [`Node::on_start`]).
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        self.counters.register(name)
    }

    /// The simulation RNG (seeded; deterministic).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}
