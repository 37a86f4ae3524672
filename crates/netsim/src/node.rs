//! The [`Node`] behaviour trait and the [`Ctx`] handle through which nodes
//! interact with the simulation.

use crate::counters::{CounterId, Counters};
use crate::link::{Transmitter, TxOutcome};
use crate::payload::Payload;
use crate::sim::{EventKind, EventQueue};
use crate::time::Ns;
use crate::trace::Trace;
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
    /// Pending timers addressed to the node are part of the volatile
    /// state: the engine drops them while the node is down, so
    /// [`Node::on_restart`] must re-arm whatever periodic machinery the
    /// node needs. Default: no-op (an immortal-by-convention node).
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// The node restarted after a crash (`up == true` transition).
    /// Implementations re-arm timers and re-announce themselves (an xTR
    /// re-registers its mappings, a PCE re-syncs its flow DB). Default:
    /// no-op.
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
    pub(crate) node_name: &'a str,
    pub(crate) ports: &'a [PortBinding],
    pub(crate) transmitters: &'a mut [Transmitter<P>],
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) trace: &'a mut Trace,
    pub(crate) counters: &'a mut Counters,
    pub(crate) queue: &'a mut EventQueue<P>,
    pub(crate) stopped: &'a mut bool,
}

impl<'a, P: Payload> Ctx<'a, P> {
    /// Push an event straight into the engine's queue (the shared
    /// scheduling routine, so engine- and node-scheduled events follow
    /// one `(time, seq)` total order).
    #[inline]
    fn push_event(&mut self, at: Ns, node: NodeId, kind: EventKind<P>) {
        self.queue.push(at, node, kind);
    }

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
    /// if the packet was dropped (queue full or fault injection).
    ///
    /// # Panics
    /// Panics if `port` is not connected.
    pub fn send(&mut self, port: PortId, pkt: P) -> bool {
        let binding = self.ports[port];
        let tx = &mut self.transmitters[binding.tx_index];
        // Administratively-down link: drop or stall per policy, before
        // fault injection (a dead link consumes no randomness, so runs
        // with all links up are bit-identical to the pre-dynamics engine).
        if !tx.up {
            return tx.hold_while_down(pkt).is_none();
        }
        // Fault injection: random drop.
        if tx.cfg.drop_prob > 0.0 && self.rng.random_bool(tx.cfg.drop_prob) {
            tx.stats.fault_drops += 1;
            return false;
        }
        let mut pkt = pkt;
        let len = pkt.wire_len();
        // Fault injection: corrupt one random bit of the wire image.
        if tx.cfg.corrupt_prob > 0.0 && len > 0 && self.rng.random_bool(tx.cfg.corrupt_prob) {
            let idx = self.rng.random_range(0..len);
            let bit = self.rng.random_range(0..8u8);
            pkt.corrupt(idx, bit);
            tx.stats.corrupted += 1;
        }
        match tx.offer(self.now, len) {
            TxOutcome::Deliver { arrival } => {
                self.push_event(
                    arrival,
                    binding.peer_node,
                    EventKind::Packet {
                        port: binding.peer_port,
                        payload: pkt,
                    },
                );
                true
            }
            TxOutcome::QueueDrop => false,
        }
    }

    /// Set a timer to fire after `delay` with `token`. Delays that
    /// would overflow the clock saturate to [`Ns::MAX`], which the
    /// engine treats as "never" — such timers do not fire.
    pub fn set_timer(&mut self, delay: Ns, token: u64) {
        let at = self.now.saturating_add(delay);
        self.push_event(at, self.node, EventKind::Timer { token });
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
        self.trace.push(self.now, self.node, self.node_name, msg);
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

    /// Stop the simulation after this event is processed.
    pub fn stop(&mut self) {
        *self.stopped = true;
    }
}
