//! The simulation engine: event queue, node registry, link registry.
//!
//! Hot-path design (DESIGN.md §1–§3, §9, §12): events are totally
//! ordered by a packed `(at ‖ seq)` `u128` key — the full 64-bit
//! virtual time in the high half, a 64-bit monotonic schedule counter
//! in the low half — so same-time events fire in scheduling (FIFO)
//! order and ordering is one integer compare. Event *bodies* (as large
//! as the payload type) live in a free-listed slab; only the compact
//! `(key, slot)` pairs enter the priority structure, which since PR 8
//! is a [calendar queue](crate::calq) (fixed-width time buckets, a rung
//! of per-year piles, an overflow heap) rather than a `BinaryHeap`,
//! cutting the per-event sift cost on wide worlds. Nodes schedule
//! through [`Ctx`], which
//! holds split borrows of the queue and pushes directly into it. The
//! engine is generic over [`Payload`]: packets are *typed values* whose
//! wire length is computed, not materialized, so the steady-state event
//! loop moves no byte buffers and performs no allocations.

use crate::calq::CalendarQueue;
use crate::counters::Counters;
use crate::link::{LinkCfg, LinkStats, Transmitter};
use crate::node::{Ctx, EventPort, Node, NodeId, PortBinding, PortId};
use crate::payload::Payload;
use crate::time::Ns;
use crate::trace::{fnv64, NodeNames, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::sync::atomic::AtomicU64;

/// Events processed by every [`Sim`] in this process, across all
/// threads (see [`process_events`]). Each `run_until` flushes its delta
/// once at the end, so the hot loop never touches the atomic.
static PROCESS_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Total events processed by every [`Sim`] in this process so far —
/// including simulations that have already been dropped. The repo
/// benchmark diffs this around a run to report an aggregate events/s
/// figure without keeping every world alive.
pub fn process_events() -> u64 {
    PROCESS_EVENTS.load(std::sync::atomic::Ordering::Relaxed)
}

/// What a scheduled event delivers.
#[derive(Debug)]
pub(crate) enum EventKind<P: Payload> {
    Packet {
        port: EventPort,
        payload: P,
    },
    Timer {
        token: u64,
    },
    /// A deferred send ([`Ctx::send_after`]), addressed to the sending
    /// node: when it falls due the engine hands `payload` to
    /// [`Ctx::send`] on `port`. Delivered like a timer: dropped while
    /// the node is down.
    Deferred {
        port: EventPort,
        payload: P,
    },
    /// A timed call into the target node's state
    /// ([`Sim::schedule_call`]). Delivered like a timer: dropped while
    /// the node is down.
    Call(Call<P>),
    /// Administrative link state change, handled by the engine itself
    /// (no node dispatch): transmitter `tx` (one *direction* of a link;
    /// `link * 2 + dir`) goes up/down. `Sim::schedule_link_admin`
    /// schedules one such event per direction with consecutive sequence
    /// numbers, addressed to the direction's sender node.
    LinkAdmin {
        tx: usize,
        up: bool,
    },
    /// Administrative *node* state change: the event's target node
    /// crashes (`up == false`) or restarts (`up == true`). The event is
    /// addressed to the affected node itself. On a down-transition the
    /// node's [`Node::on_crash`] hook runs (volatile state is lost); on
    /// an up-transition [`Node::on_restart`] runs. While a node is down,
    /// packets, timers and calls addressed to it are dropped and counted
    /// in [`Sim::node_down_drops`].
    NodeAdmin {
        up: bool,
    },
}

/// The boxed closure of a [`Sim::schedule_call`], with the downcast to
/// the node's concrete type folded in. Two words, so it fits inside
/// any packet variant and the slab slot does not grow.
pub(crate) struct Call<P: Payload>(Box<CallFn<P>>);

/// The body of a [`Call`]: it receives the target node untyped.
type CallFn<P> = dyn FnOnce(&mut dyn Node<P>, &mut Ctx<'_, P>) + Send;

impl<P: Payload> std::fmt::Debug for Call<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Call")
    }
}

/// End of the slab's free chain.
const NIL: u32 = u32::MAX;

/// One slot of the event slab: a pending event's body, or a link of
/// the free chain threaded through the vacant slots.
#[derive(Debug)]
pub(crate) enum Slot<P: Payload> {
    /// A pending event for a node.
    Busy(NodeId, EventKind<P>),
    /// Vacant; the next vacant slot, or [`NIL`].
    Free(u32),
}

/// The engine's priority queue: a [`CalendarQueue`] of compact
/// `(key = at ‖ seq, slot)` entries over a slab of event bodies.
///
/// The `(time, seq)` total order is packed into one `u128` key — the
/// full 64-bit `at` in the high half, the full 64-bit monotonic `seq`
/// in the low half — so ordering is a single integer compare; `seq`
/// both breaks time ties deterministically and yields FIFO order among
/// same-time events. Keeping the ordered entries small matters: event
/// bodies are as large as the payload type (a typed `Packet` is 72
/// bytes), so bodies live in a slab (slots indexed by the entry's
/// `u32`, vacant ones chained into a free list through the slab itself)
/// and only the compact keys enter the calendar queue. Events at
/// [`Ns::MAX`] mean "never" (saturated timers) and are not enqueued at
/// all — they consume no sequence number either.
///
/// A body is moved once into its slot and once out of it (DESIGN.md
/// §12): [`EventQueue::claim`] does every check and allocation a push
/// needs *before* the body exists, [`Claim::fill`] writes it straight
/// into the slot, and [`EventQueue::take`] moves it out to the
/// dispatching frame. No panic edge sits between building a body and
/// storing it, so the compiler keeps no spare copy for an unwind path.
#[derive(Debug)]
pub(crate) struct EventQueue<P: Payload> {
    cal: CalendarQueue,
    slab: Vec<Slot<P>>,
    /// First vacant slot of the free chain, or [`NIL`].
    free: u32,
    /// Monotonic schedule counter (the low 64 bits of every key).
    seq: u64,
}

/// A slab slot claimed for one event: its key is stamped and the slot
/// unlinked from the free chain, and [`Claim::fill`] writes the body
/// and files the key. An unfilled claim enqueues nothing.
#[must_use = "a claim enqueues nothing until it is filled"]
pub(crate) struct Claim<'a, P: Payload> {
    slot: &'a mut Slot<P>,
    cal: &'a mut CalendarQueue,
    key: u128,
    index: u32,
}

impl<P: Payload> Claim<'_, P> {
    /// Write the event body into the claimed slot — its one move in —
    /// and file its key in the calendar queue.
    #[inline(always)]
    pub(crate) fn fill(self, node: NodeId, kind: EventKind<P>) {
        // `claim` saw the slot vacant, and a vacant slot owns nothing,
        // so the old value is forgotten rather than dropped: a drop
        // (which plain `=` would run first) is a call the compiler
        // cannot rule out, and its unwind edge would pin the new body
        // in a temporary and copy it twice.
        std::mem::forget(std::mem::replace(self.slot, Slot::Busy(node, kind)));
        self.cal.push(self.key, self.index);
    }
}

impl<P: Payload> EventQueue<P> {
    pub(crate) fn new() -> Self {
        Self {
            cal: CalendarQueue::new(),
            slab: Vec::new(),
            free: NIL,
            seq: 0,
        }
    }

    /// Claim a slot for an event at `at`, stamping the next sequence
    /// number — the single scheduling routine shared by the engine
    /// ([`Sim`]) and node contexts ([`Ctx`]), so the `(time, seq)`
    /// total order has exactly one implementation. `None` for
    /// [`Ns::MAX`] ("never"): nothing is claimed and no sequence number
    /// is spent.
    #[inline(always)]
    pub(crate) fn claim(&mut self, at: Ns) -> Option<Claim<'_, P>> {
        if at == Ns::MAX {
            return None;
        }
        self.seq += 1;
        let key = (u128::from(at.0) << 64) | u128::from(self.seq);
        if self.free == NIL {
            self.grow();
        }
        let index = self.free;
        let slot = &mut self.slab[index as usize];
        let Slot::Free(next) = *slot else {
            unreachable!("free chain runs through a pending event")
        };
        self.free = next;
        Some(Claim {
            slot,
            cal: &mut self.cal,
            key,
            index,
        })
    }

    /// Add one vacant slot to the empty free chain.
    #[cold]
    fn grow(&mut self) {
        self.free = u32::try_from(self.slab.len())
            .ok()
            .filter(|&index| index != NIL)
            .expect("too many pending events");
        self.slab.push(Slot::Free(NIL));
    }

    /// Schedule `kind` for `node` at `at` (see [`EventQueue::claim`]).
    #[inline(always)]
    pub(crate) fn push(&mut self, at: Ns, node: NodeId, kind: EventKind<P>) {
        if let Some(claim) = self.claim(at) {
            claim.fill(node, kind);
        }
    }

    /// Remove the earliest pending event if it is due at or before
    /// `deadline`: its time, sequence number and slab slot. The body
    /// stays in the slot until [`EventQueue::take`] moves it out.
    #[inline(always)]
    pub(crate) fn pop_until(&mut self, deadline: Ns) -> Option<(Ns, u64, u32)> {
        let (key, index) = self.cal.pop_until(deadline.0)?;
        Some((Ns((key >> 64) as u64), key as u64, index))
    }

    /// Move the body out of slot `index` — its one move out — and chain
    /// the slot onto the free list.
    #[inline(always)]
    pub(crate) fn take(&mut self, index: u32) -> Slot<P> {
        let body = std::mem::replace(&mut self.slab[index as usize], Slot::Free(self.free));
        self.free = index;
        body
    }

    /// The target node of the event in slot `index`, and whether the
    /// event is a packet, timer or deferred send rather than an
    /// administrative change or a call.
    #[inline(always)]
    pub(crate) fn peek(&self, index: u32) -> (NodeId, bool) {
        match &self.slab[index as usize] {
            Slot::Busy(node, kind) => (
                *node,
                matches!(
                    kind,
                    EventKind::Packet { .. } | EventKind::Timer { .. } | EventKind::Deferred { .. }
                ),
            ),
            Slot::Free(_) => unreachable!("queue entry without slab body"),
        }
    }

    /// The packet event waiting in slot `index`, by reference: target
    /// node, port and payload.
    pub(crate) fn packet(&self, index: u32) -> Option<(NodeId, EventPort, &P)> {
        match &self.slab[index as usize] {
            Slot::Busy(node, EventKind::Packet { port, payload }) => Some((*node, *port, payload)),
            _ => None,
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.cal.len()
    }

    /// Slab slots holding an event body, and how many of those bodies
    /// are packets (in flight or deferred).
    fn bodies(&self) -> (usize, usize) {
        self.slab
            .iter()
            .fold((0, 0), |(all, packets), slot| match slot {
                Slot::Busy(_, EventKind::Packet { .. } | EventKind::Deferred { .. }) => {
                    (all + 1, packets + 1)
                }
                Slot::Busy(..) => (all + 1, packets),
                Slot::Free(_) => (all, packets),
            })
    }
}

/// Test-only probe over the engine's real event queue, so differential
/// oracle tests outside this crate can drive `EventQueue` (calendar
/// queue + slab) against a reference implementation. Hidden: not API.
#[doc(hidden)]
pub mod queue_testing {
    use super::{EventKind, EventQueue, Slot};
    use crate::time::Ns;

    /// Drives an `EventQueue<Vec<u8>>` with timer events.
    #[derive(Debug)]
    pub struct QueueProbe {
        q: EventQueue<Vec<u8>>,
    }

    impl Default for QueueProbe {
        fn default() -> Self {
            Self::new()
        }
    }

    impl QueueProbe {
        /// An empty probe.
        pub fn new() -> Self {
            Self {
                q: EventQueue::new(),
            }
        }

        /// Push a timer event for `node` at `at` (nanoseconds;
        /// `u64::MAX` is the engine's "never" and must be skipped).
        pub fn push(&mut self, at: u64, node: usize, token: u64) {
            self.q.push(Ns(at), node, EventKind::Timer { token });
        }

        /// Pop the earliest event as `(at, seq, node, token)`.
        pub fn pop(&mut self) -> Option<(u64, u64, usize, u64)> {
            let (at, seq, index) = self.q.pop_until(Ns::MAX)?;
            let Slot::Busy(node, EventKind::Timer { token }) = self.q.take(index) else {
                unreachable!("probe pushes timers only")
            };
            Some((at.0, seq, node, token))
        }

        /// Pending events.
        pub fn len(&self) -> usize {
            self.q.len()
        }

        /// True when nothing is pending.
        pub fn is_empty(&self) -> bool {
            self.q.len() == 0
        }

        /// Slab slots currently holding a live event body.
        pub fn slab_occupied(&self) -> usize {
            self.q.bodies().0
        }

        /// Total slab slots ever allocated (live + free-listed).
        pub fn slab_capacity(&self) -> usize {
            self.q.slab.len()
        }
    }
}

/// A deterministic discrete-event simulation, generic over the packet
/// [`Payload`] its nodes exchange. Product code instantiates
/// `Sim<lispwire::Packet>` (typed packets, computed wire lengths);
/// engine tests and benches use the default `Sim<Vec<u8>>`.
pub struct Sim<P: Payload = Vec<u8>> {
    nodes: Vec<Box<dyn Node<P>>>,
    names: NodeNames,
    ports: Vec<Vec<PortBinding>>,
    transmitters: Vec<Transmitter>,
    /// The sending node of each transmitter, in transmitter order: the
    /// node a `LinkAdmin` event for that direction is addressed to.
    tx_senders: Vec<NodeId>,
    /// Administrative per-node state: `false` while a node is crashed.
    /// All-up worlds pay one bool test per delivered event and nothing
    /// else, so runs without node dynamics stay byte-identical.
    node_up: Vec<bool>,
    /// Packets, timers, deferred sends and calls dropped because their
    /// target node was down.
    node_down_drops: u64,
    queue: EventQueue<P>,
    now: Ns,
    rng: SmallRng,
    /// The trace log (enable before running to record).
    pub trace: Trace,
    started: bool,
    events_processed: u64,
    /// Portion of `events_processed` already flushed to [`PROCESS_EVENTS`].
    events_flushed: u64,
}

impl<P: Payload> Sim<P> {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            names: NodeNames::default(),
            ports: Vec::new(),
            transmitters: Vec::new(),
            tx_senders: Vec::new(),
            node_up: Vec::new(),
            node_down_drops: 0,
            queue: EventQueue::new(),
            now: Ns::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            trace: Trace::new(),
            started: false,
            events_processed: 0,
            events_flushed: 0,
        }
    }

    /// Register a node; returns its id.
    pub fn add_node(&mut self, name: &str, node: Box<dyn Node<P>>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.names.push(name);
        self.ports.push(Vec::new());
        self.node_up.push(true);
        id
    }

    /// Connect two nodes with a duplex link using `cfg` for both
    /// directions. Returns the port ids assigned at `a` and `b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkCfg) -> (PortId, PortId) {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        let tx_ab = self.transmitters.len();
        self.transmitters.push(Transmitter::new(cfg));
        let tx_ba = self.transmitters.len();
        self.transmitters.push(Transmitter::new(cfg));
        let port_a = self.ports[a].len();
        let port_b = self.ports[b].len();
        let event_port =
            |port: PortId| EventPort::try_from(port).expect("too many ports on one node");
        let (peer_a, peer_b) = (event_port(port_a), event_port(port_b));
        self.tx_senders.extend([a, b]);
        self.ports[a].push(PortBinding {
            peer_node: b,
            peer_port: peer_b,
            tx_index: tx_ab,
        });
        self.ports[b].push(PortBinding {
            peer_node: a,
            peer_port: peer_a,
            tx_index: tx_ba,
        });
        (port_a, port_b)
    }

    /// The current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// A node's display name.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.names.get(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Schedule a timer for `node` at absolute-delay `delay` from now.
    /// Delays that would overflow the clock saturate to [`Ns::MAX`],
    /// which the engine treats as "never" — such timers do not fire.
    ///
    /// # Panics
    /// Panics if `node` is not in the simulation.
    pub fn schedule_timer(&mut self, node: NodeId, delay: Ns, token: u64) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        let at = self.now.saturating_add(delay);
        self.queue.push(at, node, EventKind::Timer { token });
    }

    /// Schedule `f` to run against `node`'s state, `delay` from now —
    /// the one way to change a node at a set time (a re-registration, a
    /// route change, a standby's takeover; DESIGN.md §7). The call fires
    /// in `(time, seq)` order with every other event and is delivered
    /// like a timer: while the node is down it is dropped and counted in
    /// [`Sim::node_down_drops`], and nothing re-delivers it after a
    /// restart. Delays that would overflow the clock saturate to
    /// [`Ns::MAX`], which the engine treats as "never".
    ///
    /// ```
    /// use netsim::{Node, Ns, Sim};
    ///
    /// struct Configurable {
    ///     limit: u32,
    /// }
    /// impl Node for Configurable {}
    ///
    /// let mut sim: Sim = Sim::new(1);
    /// let n = sim.add_node("cfg", Box::new(Configurable { limit: 0 }));
    /// sim.schedule_call::<Configurable>(n, Ns::from_ms(5), |c, _ctx| c.limit = 42);
    /// sim.run_until(Ns::from_ms(10));
    /// assert_eq!(sim.node_ref::<Configurable>(n).limit, 42);
    /// ```
    ///
    /// # Panics
    /// Panics, here rather than when the call fires, if `node` is not in
    /// the simulation or is not a `T`; the message names the node and
    /// `T`.
    pub fn schedule_call<T: Node<P>>(
        &mut self,
        node: NodeId,
        delay: Ns,
        f: impl FnOnce(&mut T, &mut Ctx<'_, P>) + Send + 'static,
    ) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        let n: &dyn Any = &*self.nodes[node];
        if !n.is::<T>() {
            type_mismatch::<T>(node, self.names.get(node));
        }
        let call = Call(Box::new(
            move |n: &mut dyn Node<P>, ctx: &mut Ctx<'_, P>| {
                let n: &mut dyn Any = n;
                f(n.downcast_mut().expect("checked at schedule time"), ctx)
            },
        ));
        let at = self.now.saturating_add(delay);
        self.queue.push(at, node, EventKind::Call(call));
    }

    /// The run-wide named counts: every node's [`Node::counters`],
    /// summed by name, zero counts left out (DESIGN.md §3). Built on
    /// each call from the nodes' own fields.
    pub fn counters(&self) -> Counters {
        let mut out = Counters::default();
        for node in &self.nodes {
            node.counters(&mut out);
        }
        out
    }

    /// Transmit statistics of the `dir` direction of the `n`-th link
    /// created (0-based; direction 0 = a→b of that `connect` call).
    pub fn link_stats(&self, link: usize, dir: usize) -> LinkStats {
        self.transmitters[link * 2 + dir].stats
    }

    /// Number of links created so far (the index the *next* `connect`
    /// call will get).
    pub fn link_count(&self) -> usize {
        self.transmitters.len() / 2
    }

    /// Sum of queue-drop counts across all links.
    pub fn total_queue_drops(&self) -> u64 {
        self.transmitters.iter().map(|t| t.stats.queue_drops).sum()
    }

    /// Sum of fault-drop counts across all links.
    pub fn total_fault_drops(&self) -> u64 {
        self.transmitters.iter().map(|t| t.stats.fault_drops).sum()
    }

    /// Sum of down-drop counts across all links (packets offered while a
    /// link was administratively down).
    pub fn total_down_drops(&self) -> u64 {
        self.transmitters.iter().map(|t| t.stats.down_drops).sum()
    }

    /// Sum of horizon-drop counts across all links (packets whose
    /// arrival would fall past the end of the clock).
    pub fn total_horizon_drops(&self) -> u64 {
        self.transmitters
            .iter()
            .map(|t| t.stats.horizon_drops)
            .sum()
    }

    /// Schedule an administrative state change of both directions of
    /// link `link` (0-based creation order), `delay` from now — the
    /// timed-failure primitive of the dynamics subsystem (DESIGN.md §7).
    /// The change fires in `(time, seq)` total order with every other
    /// event, so packets sent at the same instant but scheduled *after*
    /// the change see the new state.
    pub fn schedule_link_admin(&mut self, delay: Ns, link: usize, up: bool) {
        assert!(link < self.link_count(), "unknown link {link}");
        let at = self.now.saturating_add(delay);
        // One event per direction, with consecutive sequence numbers
        // (no event can be stamped between two back-to-back pushes at
        // the same instant), each addressed to the direction's sender.
        for dir in 0..2 {
            let tx = link * 2 + dir;
            let sender = self.tx_senders[tx];
            self.queue.push(at, sender, EventKind::LinkAdmin { tx, up });
        }
    }

    /// Schedule an administrative state change of `node` (crash when
    /// `up == false`, restart when `up == true`), `delay` from now — the
    /// node-mortality primitive of the dynamics subsystem (DESIGN.md
    /// §13). The change fires in `(time, seq)` total order with every
    /// other event; packets, timers, deferred sends and calls already
    /// addressed to the node that pop while it is down are dropped and
    /// counted in
    /// [`Sim::node_down_drops`]. On the transition the node's
    /// [`Node::on_crash`] / [`Node::on_restart`] hook runs.
    pub fn schedule_node_admin(&mut self, delay: Ns, node: NodeId, up: bool) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        let at = self.now.saturating_add(delay);
        self.queue.push(at, node, EventKind::NodeAdmin { up });
    }

    /// Apply an administrative node state change immediately (the
    /// untimed variant of [`Sim::schedule_node_admin`]).
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        self.apply_node_admin(node, up);
    }

    /// Whether `node` is administratively up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.node_up[node]
    }

    /// Packets, timers, deferred sends and calls dropped because their
    /// target node was down.
    pub fn node_down_drops(&self) -> u64 {
        self.node_down_drops
    }

    /// The shared transition routine behind [`EventKind::NodeAdmin`] and
    /// [`Sim::set_node_up`]: flip the flag and run the matching hook on
    /// a real transition (redundant admin events are no-ops, so a
    /// scripted Down/Down pair cannot double-clear state).
    fn apply_node_admin(&mut self, node: NodeId, up: bool) {
        let was_up = self.node_up[node];
        self.node_up[node] = up;
        if was_up && !up {
            let (n, mut ctx) = self.node_ctx(node);
            n.on_crash(&mut ctx);
        } else if !was_up && up {
            let (n, mut ctx) = self.node_ctx(node);
            n.on_restart(&mut ctx);
        }
    }

    /// Packets the engine holds right now: queued for delivery or held
    /// by a [`Ctx::send_after`]. Test probe for packet conservation: not
    /// part of the API.
    #[doc(hidden)]
    pub fn held_packets(&self) -> usize {
        self.queue.bodies().1
    }

    /// Slab slots holding an event body of any kind; 0 once the queue
    /// has drained. Test probe: not part of the API.
    #[doc(hidden)]
    pub fn slab_bodies(&self) -> usize {
        self.queue.bodies().0
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Mutable access to a node, downcast to its concrete type through
    /// the [`Any`] supertrait of [`Node`].
    ///
    /// # Panics
    /// Panics if the node is not a `T`; the message names the node and `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        let n: &mut dyn Any = &mut *self.nodes[id];
        n.downcast_mut::<T>()
            .unwrap_or_else(|| type_mismatch::<T>(id, self.names.get(id)))
    }

    /// Immutable access to a node, downcast to its concrete type through
    /// the [`Any`] supertrait of [`Node`].
    ///
    /// # Panics
    /// Panics if the node is not a `T`; the message names the node and `T`.
    pub fn node_ref<T: 'static>(&self, id: NodeId) -> &T {
        // `&*` upcasts the node itself; `&self.nodes[id]` would make the
        // `Box` the `Any`, and every downcast would fail.
        let n: &dyn Any = &*self.nodes[id];
        n.downcast_ref::<T>()
            .unwrap_or_else(|| type_mismatch::<T>(id, self.names.get(id)))
    }

    /// Split the simulation into node `node_id` and a fully-wired
    /// [`Ctx`] for it: the one way every hook is called (event delivery,
    /// `start_all`, crash and restart). The context holds split borrows
    /// of the other fields, so everything a node schedules is pushed
    /// straight into the queue — steady-state dispatch materialises no
    /// intermediate action list and performs no allocations. Nothing is
    /// captured in a closure, so a packet moves from the slab to the
    /// hook's argument without a stop in between.
    #[inline(always)]
    fn node_ctx(&mut self, node_id: NodeId) -> (&mut dyn Node<P>, Ctx<'_, P>) {
        let node = &mut *self.nodes[node_id];
        let ctx = Ctx {
            now: self.now,
            node: node_id,
            names: &self.names,
            ports: &self.ports[node_id],
            transmitters: &mut self.transmitters,
            rng: &mut self.rng,
            trace: &mut self.trace,
            queue: &mut self.queue,
        };
        (node, ctx)
    }

    /// Deliver the event in slab slot `index`. Everything that can
    /// fail — the down-node test, the packet log, the index checks of
    /// [`Sim::node_ctx`] — runs while the body still sits in the slab;
    /// only then is it moved out, straight into the hook's argument (its
    /// one move out). A panic edge with the payload held in this frame
    /// would pin it in a temporary and copy it once more.
    #[inline(always)]
    fn dispatch(&mut self, index: u32) {
        let (node_id, delivery) = self.queue.peek(index);
        // LinkAdmin and NodeAdmin are engine state, not node state: they
        // apply even while the owning endpoint is down. Calls are rare,
        // so they take this branch too and the packet and timer path
        // below stays as lean as it was without them.
        if !delivery {
            match self.queue.take(index) {
                Slot::Busy(_, EventKind::LinkAdmin { tx, up }) => self.transmitters[tx].up = up,
                Slot::Busy(_, EventKind::NodeAdmin { up }) => self.apply_node_admin(node_id, up),
                Slot::Busy(_, EventKind::Call(call)) => self.call(node_id, call),
                _ => unreachable!("peek said administrative or a call"),
            }
            return;
        }
        // Down-node check first: a crashed node receives no packets or
        // timers and sends nothing it deferred (calls get the same check
        // in `Sim::call`). Only what falls due during the outage is
        // lost; a timer or deferred send due after the restart still
        // fires. One bool test on the hot path, before
        // the packet log, so all-up runs are byte-identical to the
        // pre-node-dynamics engine.
        if !self.node_up[node_id] {
            self.node_down_drops += 1;
            drop(self.queue.take(index));
            return;
        }
        if self.trace.packet_log_enabled() {
            self.log_packet(index);
        }
        let (node, mut ctx) = self.node_ctx(node_id);
        match ctx.queue.take(index) {
            Slot::Busy(_, EventKind::Packet { port, payload }) => {
                node.on_packet(&mut ctx, port as PortId, payload);
            }
            Slot::Busy(_, EventKind::Timer { token }) => node.on_timer(&mut ctx, token),
            Slot::Busy(_, EventKind::Deferred { port, payload }) => {
                ctx.send(port as PortId, payload);
            }
            // Consumed by a call rather than held across a panic: an
            // unwind edge here would keep the body in a temporary on
            // every path.
            other => not_a_delivery(other),
        }
    }

    /// Run a [`Sim::schedule_call`] body against its node, delivered
    /// like a timer: while the node is down it is dropped and counted.
    #[cold]
    fn call(&mut self, node_id: NodeId, Call(f): Call<P>) {
        if !self.node_up[node_id] {
            self.node_down_drops += 1;
            return;
        }
        let (node, mut ctx) = self.node_ctx(node_id);
        f(node, &mut ctx);
    }

    /// Lazy packet log: encodes the payload waiting in slot `index`
    /// only when the trace was explicitly asked to record packet
    /// digests.
    #[cold]
    fn log_packet(&mut self, index: u32) {
        let Some((node, port, payload)) = self.queue.packet(index) else {
            return;
        };
        let bytes = payload.encode();
        self.trace.push(
            self.now,
            node,
            &self.names,
            format_args!(
                "pkt rx port={} len={} fnv64={:016x}",
                port,
                bytes.len(),
                fnv64(&bytes)
            ),
        );
    }

    fn start_all(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node_id in 0..self.nodes.len() {
            let (node, mut ctx) = self.node_ctx(node_id);
            node.on_start(&mut ctx);
        }
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        self.run_until(Ns::MAX);
    }

    /// Run until virtual time `deadline` (events at exactly `deadline` are
    /// processed) or the queue drains.
    pub fn run_until(&mut self, deadline: Ns) {
        self.start_all();
        while let Some((at, _seq, index)) = self.queue.pop_until(deadline) {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            self.dispatch(index);
        }
        if self.now < deadline && deadline != Ns::MAX {
            self.now = deadline;
        }
        self.flush_process_events();
    }

    /// Flush this run's event delta to the process-wide tally once,
    /// outside the hot loop.
    fn flush_process_events(&mut self) {
        PROCESS_EVENTS.fetch_add(
            self.events_processed - self.events_flushed,
            std::sync::atomic::Ordering::Relaxed,
        );
        self.events_flushed = self.events_processed;
    }
}

/// The panic behind a slab slot that [`EventQueue::peek`] called a
/// delivery but is not one.
#[cold]
fn not_a_delivery<P: Payload>(slot: Slot<P>) -> ! {
    drop(slot);
    unreachable!("peek said packet, timer or deferred send")
}

/// The panic behind a failed [`Sim::node_ref`] / [`Sim::node_mut`]
/// downcast: names the node and the type it was asked to be.
#[cold]
fn type_mismatch<T>(id: NodeId, name: &str) -> ! {
    panic!(
        "node type mismatch: node {id} ({name}) is not a {}",
        std::any::type_name::<T>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkCfg;
    use crate::testkit::Tap;

    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, bytes: Vec<u8>) {
            ctx.send(port, bytes);
        }
    }

    struct Pinger {
        sent_at: Ns,
        rtt: Option<Ns>,
        payload: usize,
    }
    impl Node for Pinger {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.sent_at = ctx.now();
            ctx.send(0, vec![0u8; self.payload]);
            ctx.trace(format_args!("ping sent"));
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _bytes: Vec<u8>) {
            self.rtt = Some(ctx.now() - self.sent_at);
            ctx.trace(format_args!("pong received"));
        }
    }

    fn ping_sim(delay: Ns, payload: usize) -> (Sim, NodeId) {
        let mut sim: Sim = Sim::new(7);
        let a = sim.add_node(
            "pinger",
            Box::new(Pinger {
                sent_at: Ns::ZERO,
                rtt: None,
                payload,
            }),
        );
        let b = sim.add_node("echo", Box::new(Echo));
        sim.connect(a, b, LinkCfg::wan(delay));
        sim.schedule_timer(a, Ns::ZERO, 0);
        (sim, a)
    }

    #[test]
    fn rtt_is_twice_owd_plus_serialization() {
        let (mut sim, a) = ping_sim(Ns::from_ms(25), 1250);
        sim.run();
        // 1250 B at 1 Gbps = 10 us serialisation each way.
        let expect = (Ns::from_ms(25) + Ns::from_us(10)) * 2;
        assert_eq!(sim.node_ref::<Pinger>(a).rtt, Some(expect));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, a) = ping_sim(Ns::from_ms(25), 1250);
        sim.run_until(Ns::from_ms(10));
        assert_eq!(sim.node_ref::<Pinger>(a).rtt, None);
        assert_eq!(sim.now(), Ns::from_ms(10));
        sim.run_until(Ns::from_ms(100));
        assert!(sim.node_ref::<Pinger>(a).rtt.is_some());
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim: Sim = Sim::new(seed);
            sim.trace.enable();
            let a = sim.add_node(
                "pinger",
                Box::new(Pinger {
                    sent_at: Ns::ZERO,
                    rtt: None,
                    payload: 100,
                }),
            );
            let b = sim.add_node("echo", Box::new(Echo));
            sim.connect(a, b, LinkCfg::wan(Ns::from_ms(5)).with_drop_prob(0.3));
            for i in 0..20 {
                sim.schedule_timer(a, Ns::from_ms(i), i);
            }
            sim.run();
            sim.trace.render()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn packet_log_records_wire_digests() {
        let run = |log: bool| {
            let (mut sim, _) = ping_sim(Ns::from_ms(1), 64);
            sim.trace.enable();
            if log {
                sim.trace.enable_packet_log();
            }
            sim.run();
            sim.trace.render()
        };
        let without = run(false);
        let with = run(true);
        assert!(!without.contains("pkt rx"));
        assert!(with.contains("pkt rx port=0 len=64"));
        assert!(with.contains("fnv64="));
    }

    #[test]
    fn trace_message_is_built_only_when_it_will_be_kept() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Counts how often it is formatted.
        struct Counted(Arc<AtomicU64>);
        impl std::fmt::Display for Counted {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fetch_add(1, Ordering::Relaxed);
                f.write_str("built")
            }
        }
        struct Chatty(Counted);
        impl Node for Chatty {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                ctx.trace(format_args!("tick {}", self.0));
            }
        }
        let run = |enabled: bool, cap: usize| {
            let built = Arc::new(AtomicU64::new(0));
            let mut sim: Sim = Sim::new(1);
            let n = sim.add_node("chatty", Box::new(Chatty(Counted(built.clone()))));
            if enabled {
                sim.trace.enable();
            }
            sim.trace.set_capacity(cap);
            for i in 0..5 {
                sim.schedule_timer(n, Ns::from_ms(i), i);
            }
            sim.run();
            (built.load(Ordering::Relaxed), sim.trace.len())
        };
        assert_eq!(run(false, 1 << 20), (0, 0), "disabled: nothing formatted");
        assert_eq!(run(true, 2), (2, 2), "full: formatting stops at the cap");
        assert_eq!(run(true, 1 << 20), (5, 5));
    }

    #[test]
    fn slab_slot_adds_at_most_16_bytes_to_its_payload() {
        // A 64-byte stand-in for `lispwire::Packet` with no niche to
        // hide a tag in: node id, port and both enum tags must fit in
        // 16 bytes, or every queued packet grows by a word again. A
        // `Call` is two words, so it hides inside the packet variant.
        #[derive(Debug)]
        struct P([u64; 8]);
        impl Payload for P {
            fn wire_len(&self) -> usize {
                64
            }
            fn encode(&self) -> Vec<u8> {
                self.0.iter().flat_map(|w| w.to_be_bytes()).collect()
            }
        }
        assert!(std::mem::size_of::<Slot<P>>() <= std::mem::size_of::<P>() + 16);
    }

    #[test]
    fn fault_drops_counted() {
        let mut sim: Sim = Sim::new(3);
        let a = sim.add_node(
            "pinger",
            Box::new(Pinger {
                sent_at: Ns::ZERO,
                rtt: None,
                payload: 100,
            }),
        );
        let b = sim.add_node("echo", Box::new(Echo));
        sim.connect(a, b, LinkCfg::wan(Ns::from_ms(1)).with_drop_prob(1.0));
        sim.schedule_timer(a, Ns::ZERO, 0);
        sim.run();
        assert_eq!(sim.node_ref::<Pinger>(a).rtt, None);
        assert_eq!(sim.total_fault_drops(), 1);
    }

    #[test]
    fn same_time_events_fifo() {
        struct Recorder {
            tokens: Vec<u64>,
        }
        impl Node for Recorder {
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.tokens.push(token);
            }
        }
        let mut sim: Sim = Sim::new(1);
        let r = sim.add_node("r", Box::new(Recorder { tokens: Vec::new() }));
        for t in [3u64, 1, 4, 1, 5] {
            sim.schedule_timer(r, Ns::from_ms(1), t);
        }
        sim.run();
        assert_eq!(sim.node_ref::<Recorder>(r).tokens, vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn on_start_runs_once() {
        struct Starter {
            starts: u64,
        }
        impl Node for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.starts += 1;
                ctx.set_timer(Ns::from_ms(1), 0);
            }
        }
        let mut sim: Sim = Sim::new(1);
        let s = sim.add_node("s", Box::new(Starter { starts: 0 }));
        sim.run_until(Ns::from_ms(5));
        sim.run_until(Ns::from_ms(10));
        assert_eq!(sim.node_ref::<Starter>(s).starts, 1);
    }

    #[test]
    fn node_ref_through_shared_borrow() {
        // node_ref takes &self: two concurrent shared reads compile.
        let (mut sim, a) = ping_sim(Ns::from_ms(1), 64);
        sim.run();
        let sim_ref: &Sim = &sim;
        let first = sim_ref.node_ref::<Pinger>(a);
        let second = sim_ref.node_ref::<Pinger>(a);
        assert_eq!(first.rtt, second.rtt);
    }

    #[test]
    fn timer_overflow_saturates() {
        struct FarFuture;
        impl Node for FarFuture {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token == 0 {
                    // Would overflow `now + delay` in the old engine.
                    ctx.set_timer(Ns::MAX, 1);
                }
            }
        }
        let mut sim: Sim = Sim::new(1);
        let f = sim.add_node("f", Box::new(FarFuture));
        sim.schedule_timer(f, Ns::from_ms(1), 0);
        sim.schedule_timer(f, Ns::MAX, 7);
        sim.run_until(Ns::from_secs(1));
        assert_eq!(sim.events_processed(), 1);
        // Saturated "never" timers stay unreachable even under run(),
        // whose deadline is Ns::MAX itself.
        sim.run();
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn counters_view_sums_nodes_by_name() {
        struct Reports(&'static [(&'static str, u64)]);
        impl Node for Reports {
            fn counters(&self, out: &mut Counters) {
                for &(name, n) in self.0 {
                    out.add(name, n);
                }
            }
        }
        let mut sim: Sim = Sim::new(1);
        sim.add_node("a", Box::new(Reports(&[("zeta", 1), ("seen", 2)])));
        sim.add_node("b", Box::new(Reports(&[("seen", 3), ("idle", 0)])));
        sim.add_node("c", Box::new(Reports(&[("alpha", 4)])));
        sim.add_node("quiet", Box::new(Reports(&[])));
        let view = sim.counters();
        assert_eq!(view.get("seen"), 5, "summed over nodes");
        assert_eq!(view.get("idle"), 0);
        assert_eq!(
            view.sorted(),
            vec![("alpha", 4), ("seen", 5), ("zeta", 1)],
            "name order, zero counts not listed"
        );
    }

    #[test]
    fn downed_link_drops_later_sends_but_delivers_in_flight() {
        // A packet accepted before the failure instant is on the wire and
        // still arrives; packets sent at or after the failure instant are
        // dropped (Drop policy) and counted.
        struct Beacon {
            interval: Ns,
            sent: u64,
        }
        impl Node for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Ns::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token < 10 {
                    ctx.send(0, vec![token as u8; 32]);
                    self.sent += 1;
                    ctx.set_timer(self.interval, token + 1);
                }
            }
        }
        let mut sim: Sim = Sim::new(1);
        let b = sim.add_node(
            "beacon",
            Box::new(Beacon {
                interval: Ns::from_ms(10),
                sent: 0,
            }),
        );
        let s = sim.add_node("sink", Box::new(Tap::<Vec<u8>>::sink()));
        sim.connect(b, s, LinkCfg::wan(Ns::from_ms(5)));
        // Beacons at 0,10,..,90 ms; link down during [25, 65) ms.
        sim.schedule_link_admin(Ns::from_ms(25), 0, false);
        sim.schedule_link_admin(Ns::from_ms(65), 0, true);
        sim.run();
        let got = &sim.node_ref::<Tap>(s).received;
        let delivered: Vec<u8> = got.iter().map(|(_, bytes)| bytes[0]).collect();
        // Beacons 0,1,2 sent before the failure; 3,4,5,6 (30..60 ms)
        // dropped; 7,8,9 after recovery.
        assert_eq!(delivered, vec![0, 1, 2, 7, 8, 9]);
        assert_eq!(sim.total_down_drops(), 4);
        // The beacon at 20 ms was in flight across the failure instant
        // and still arrived (≈25 ms: OWD plus serialisation).
        assert!(got
            .iter()
            .any(|(at, bytes)| bytes[0] == 2 && *at >= Ns::from_ms(25) && *at < Ns::from_ms(26)));
    }

    /// Receives packets/timers; crash clears the volatile inbox and the
    /// restart hook re-arms a heartbeat — the engine-level template of
    /// the product nodes' state-loss policy.
    struct Fragile {
        got: Vec<u8>,
        heartbeat: u64,
        crashes: u64,
        restarts: u64,
    }
    impl Node for Fragile {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, bytes: Vec<u8>) {
            self.got.push(bytes[0]);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {
            self.heartbeat += 1;
        }
        fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
            self.crashes += 1;
            self.got.clear(); // volatile state lost
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
            self.restarts += 1;
            ctx.set_timer(Ns::from_ms(1), 99); // re-armed heartbeat
        }
    }

    #[test]
    fn downed_node_drops_deliveries_and_timers() {
        struct Beacon {
            interval: Ns,
        }
        impl Node for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Ns::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token < 10 {
                    ctx.send(0, vec![token as u8; 32]);
                    ctx.set_timer(self.interval, token + 1);
                }
            }
        }
        let mut sim: Sim = Sim::new(1);
        let b = sim.add_node(
            "beacon",
            Box::new(Beacon {
                interval: Ns::from_ms(10),
            }),
        );
        let f = sim.add_node("fragile", fragile());
        sim.connect(b, f, LinkCfg::wan(Ns::from_ms(5)));
        // Beacons at 0,10,..,90 ms; node down during [25, 65) ms; a
        // timer addressed to the node mid-outage is dropped too.
        sim.schedule_node_admin(Ns::from_ms(25), f, false);
        sim.schedule_timer(f, Ns::from_ms(40), 7);
        sim.schedule_node_admin(Ns::from_ms(65), f, true);
        sim.run();
        let node = sim.node_ref::<Fragile>(f);
        // Beacons 0,1 landed pre-crash but on_crash cleared them
        // (volatile state); 2..=5 arrived while down and were dropped
        // with the 40 ms timer; 6..=9 landed after the restart.
        assert_eq!(node.got, vec![6, 7, 8, 9]);
        assert_eq!(node.crashes, 1);
        assert_eq!(node.restarts, 1);
        assert_eq!(node.heartbeat, 1, "restart re-armed the heartbeat");
        assert_eq!(sim.node_down_drops(), 5);
        assert!(sim.node_up(f));
    }

    fn fragile() -> Box<Fragile> {
        Box::new(Fragile {
            got: Vec::new(),
            heartbeat: 0,
            crashes: 0,
            restarts: 0,
        })
    }

    #[test]
    fn call_keeps_fifo_order_with_timers_at_the_same_instant() {
        let mut sim: Sim = Sim::new(1);
        let f = sim.add_node("fragile", fragile());
        let at = Ns::from_ms(1);
        // Each call records how many timers fired before it.
        let record = |n: &mut Fragile, _: &mut Ctx<'_>| n.got.push(n.heartbeat as u8);
        sim.schedule_call(f, at, record);
        sim.schedule_timer(f, at, 0);
        sim.schedule_call(f, at, record);
        sim.schedule_timer(f, at, 1);
        sim.schedule_call(f, at, record);
        sim.run();
        assert_eq!(sim.node_ref::<Fragile>(f).got, vec![0, 1, 2]);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn call_due_while_down_is_dropped_and_counted() {
        let mut sim: Sim = Sim::new(1);
        let f = sim.add_node("fragile", fragile());
        sim.schedule_node_admin(Ns::from_ms(1), f, false);
        sim.schedule_call::<Fragile>(f, Ns::from_ms(2), |n, _| n.got.push(7));
        sim.schedule_node_admin(Ns::from_ms(3), f, true);
        sim.run();
        assert!(sim.node_ref::<Fragile>(f).got.is_empty());
        assert_eq!(sim.node_down_drops(), 1);
    }

    #[test]
    fn call_due_after_a_restart_applies_once() {
        let mut sim: Sim = Sim::new(1);
        let f = sim.add_node("fragile", fragile());
        sim.schedule_node_admin(Ns::from_ms(1), f, false);
        sim.schedule_node_admin(Ns::from_ms(2), f, true);
        sim.schedule_call::<Fragile>(f, Ns::from_ms(5), |n, ctx| {
            assert_eq!(ctx.now(), Ns::from_ms(5));
            n.got.push(7);
        });
        sim.run();
        let node = sim.node_ref::<Fragile>(f);
        assert_eq!(node.got, vec![7]);
        assert_eq!((node.crashes, node.restarts), (1, 1));
        assert_eq!(sim.node_down_drops(), 0);
    }

    /// A source with two sinks: port 0 leads to the first, port 1 to
    /// the second, each over a 5 ms, 1 Gbps link.
    fn deferral_world() -> (Sim, NodeId, [NodeId; 2]) {
        let mut sim: Sim = Sim::new(1);
        let src = sim.add_node("src", Box::new(Tap::<Vec<u8>>::new(vec![vec![0]])));
        let sinks = [0, 1].map(|i| {
            let sink = sim.add_node(&format!("sink{i}"), Box::new(Tap::<Vec<u8>>::sink()));
            sim.connect(src, sink, LinkCfg::wan(Ns::from_ms(5)));
            sink
        });
        (sim, src, sinks)
    }

    /// `(arrival, first byte)` of every packet `sink` received.
    fn arrivals(sim: &Sim, sink: NodeId) -> Vec<(Ns, u8)> {
        let received = &sim.node_ref::<Tap>(sink).received;
        received.iter().map(|(at, pkt)| (*at, pkt[0])).collect()
    }

    #[test]
    fn deferred_send_leaves_through_its_port_at_now_plus_delay() {
        let (mut sim, src, sinks) = deferral_world();
        sim.schedule_call::<Tap>(src, Ns::from_ms(1), |_, ctx| {
            ctx.send_after(Ns::from_ms(3), 1, vec![7; 125]);
        });
        sim.run_until(Ns::from_ms(2));
        assert_eq!(sim.held_packets(), 1, "held by the engine");
        assert_eq!(sim.link_stats(1, 0).tx_packets, 0, "not on the link yet");
        sim.run();
        // Sent at 4 ms: 125 bytes serialise in 1 µs, then 5 ms of delay.
        let sent = Ns::from_ms(4);
        assert_eq!(
            arrivals(&sim, sinks[1]),
            [(sent + Ns::from_us(1) + Ns::from_ms(5), 7)]
        );
        assert!(arrivals(&sim, sinks[0]).is_empty());
        assert_eq!(sim.link_stats(1, 0).tx_packets, 1);
        assert_eq!(sim.held_packets(), 0);
    }

    #[test]
    fn deferred_send_due_while_down_is_dropped_and_one_due_after_restart_is_sent() {
        let (mut sim, src, sinks) = deferral_world();
        sim.schedule_call::<Tap>(src, Ns::ZERO, |_, ctx| {
            ctx.send_after(Ns::from_ms(2), 0, vec![1]);
            ctx.send_after(Ns::from_ms(6), 0, vec![2]);
        });
        sim.schedule_node_admin(Ns::from_ms(1), src, false);
        sim.schedule_node_admin(Ns::from_ms(4), src, true);
        sim.run();
        let got: Vec<u8> = arrivals(&sim, sinks[0]).iter().map(|a| a.1).collect();
        assert_eq!(got, [2]);
        assert_eq!(sim.node_down_drops(), 1);
        assert_eq!(sim.link_stats(0, 0).tx_packets, 1);
    }

    #[test]
    fn deferred_send_keeps_fifo_order_with_a_timer_at_the_same_instant() {
        // The tap's timer 0 sends byte 0; the deferral carries byte 1.
        for timer_first in [false, true] {
            let (mut sim, src, sinks) = deferral_world();
            sim.schedule_call::<Tap>(src, Ns::ZERO, move |_, ctx| {
                let at = Ns::from_ms(1);
                if timer_first {
                    ctx.set_timer(at, 0);
                }
                ctx.send_after(at, 0, vec![1]);
                if !timer_first {
                    ctx.set_timer(at, 0);
                }
            });
            sim.run();
            let got: Vec<u8> = arrivals(&sim, sinks[0]).iter().map(|a| a.1).collect();
            let expect = if timer_first { [0, 1] } else { [1, 0] };
            assert_eq!(got, expect, "timer first: {timer_first}");
        }
    }

    #[test]
    fn deferred_sends_with_different_delays_each_keep_their_own() {
        let (mut sim, src, sinks) = deferral_world();
        sim.schedule_call::<Tap>(src, Ns::ZERO, |_, ctx| {
            ctx.send_after(Ns::from_ms(2), 0, vec![1]);
            ctx.send_after(Ns::from_ms(1), 0, vec![2]);
        });
        sim.run();
        // One byte serialises in 8 ns.
        let link = Ns::from_ms(5) + Ns(8);
        assert_eq!(
            arrivals(&sim, sinks[0]),
            [(Ns::from_ms(1) + link, 2), (Ns::from_ms(2) + link, 1)]
        );
    }

    #[test]
    fn deferred_send_past_the_clock_is_refused_and_counted() {
        let (mut sim, src, _) = deferral_world();
        sim.schedule_call::<Tap>(src, Ns::from_ms(1), |_, ctx| {
            ctx.send_after(Ns::MAX, 0, vec![1]);
        });
        sim.run();
        assert_eq!(sim.total_horizon_drops(), 1);
        assert_eq!(sim.held_packets(), 0);
    }

    #[test]
    #[should_panic(expected = "node 0 (echo) is not a netsim::sim::tests::Fragile")]
    fn call_against_the_wrong_type_panics_when_scheduled() {
        let mut sim: Sim = Sim::new(1);
        let echo = sim.add_node("echo", Box::new(Echo));
        sim.schedule_call::<Fragile>(echo, Ns::from_ms(1), |n, _| n.got.push(7));
    }

    #[test]
    fn redundant_node_admin_is_a_noop() {
        let mut sim: Sim = Sim::new(1);
        let f = sim.add_node("fragile", fragile());
        sim.set_node_up(f, true); // already up: no hook
        sim.schedule_node_admin(Ns::from_ms(1), f, false);
        sim.schedule_node_admin(Ns::from_ms(2), f, false); // redundant
        sim.schedule_node_admin(Ns::from_ms(3), f, true);
        sim.run();
        let node = sim.node_ref::<Fragile>(f);
        assert_eq!(node.crashes, 1);
        assert_eq!(node.restarts, 1);
    }

    #[test]
    fn node_admin_after_horizon_leaves_trace_identical() {
        // A crash scheduled after the last event of the run must leave
        // the trace byte-identical to a run without it (the all-up
        // byte-identity contract, DESIGN.md §13).
        let run = |crash: bool| {
            let (mut sim, _) = ping_sim(Ns::from_ms(25), 1250);
            sim.trace.enable();
            if crash {
                sim.schedule_node_admin(Ns::from_secs(10), 0, false);
            }
            sim.run_until(Ns::from_secs(1));
            sim.trace.render()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "unknown node 5")]
    fn schedule_timer_rejects_unknown_node() {
        let mut sim: Sim = Sim::new(1);
        sim.add_node("only", Box::new(Tap::<Vec<u8>>::sink()));
        sim.schedule_timer(5, Ns::from_ms(1), 0);
    }

    #[test]
    #[should_panic(expected = "node 1 (tap) is not a netsim::sim::tests::Pinger")]
    fn node_ref_mismatch_names_node_and_type() {
        let mut sim: Sim = Sim::new(1);
        sim.add_node("echo", Box::new(Echo));
        let tap = sim.add_node("tap", Box::new(Tap::<Vec<u8>>::sink()));
        sim.node_ref::<Pinger>(tap);
    }
}
