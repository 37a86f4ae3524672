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
use crate::counters::{CounterId, Counters};
use crate::link::{LinkCfg, LinkStats, Transmitter, TxOutcome};
use crate::node::{Ctx, EventPort, Node, NodeId, PortBinding, PortId};
use crate::payload::Payload;
use crate::time::Ns;
use crate::trace::{fnv64, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::VecDeque;
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
pub(crate) enum EventKind<P> {
    Packet {
        port: EventPort,
        payload: P,
    },
    Timer {
        token: u64,
    },
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
    /// packets and timers addressed to it are dropped and counted in
    /// [`Sim::node_down_drops`].
    NodeAdmin {
        up: bool,
    },
}

/// A popped event, reassembled from the queue's key/slab halves.
#[derive(Debug)]
pub(crate) struct TimedEvent<P> {
    pub(crate) at: Ns,
    /// Low half of the popped key: the schedule sequence number.
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) kind: EventKind<P>,
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
/// bytes), so bodies live in a free-listed slab (slots indexed by the
/// entry's `u32`) and only the compact keys enter the calendar queue.
/// Events at [`Ns::MAX`] mean "never" (saturated timers) and are not
/// enqueued at all — they consume no sequence number either.
#[derive(Debug)]
pub(crate) struct EventQueue<P> {
    cal: CalendarQueue,
    slab: Vec<Option<(NodeId, EventKind<P>)>>,
    free: Vec<u32>,
    /// Monotonic schedule counter (the low 64 bits of every key).
    seq: u64,
}

impl<P> EventQueue<P> {
    pub(crate) fn new() -> Self {
        Self {
            cal: CalendarQueue::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    #[inline]
    fn insert_body(&mut self, node: NodeId, kind: EventKind<P>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some((node, kind));
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("too many pending events");
                self.slab.push(Some((node, kind)));
                slot
            }
        }
    }

    /// Schedule `kind` for `node` at `at`, stamping the next sequence
    /// number — the single scheduling routine shared by the engine
    /// ([`Sim`]) and node contexts ([`Ctx`]), so the `(time, seq)`
    /// total order has exactly one implementation.
    #[inline]
    pub(crate) fn push(&mut self, at: Ns, node: NodeId, kind: EventKind<P>) {
        if at == Ns::MAX {
            return;
        }
        self.seq += 1;
        let key = (u128::from(at.0) << 64) | u128::from(self.seq);
        let slot = self.insert_body(node, kind);
        self.cal.push(key, slot);
    }

    /// Remove and return the earliest pending event if it is due at or
    /// before `deadline`.
    #[inline]
    pub(crate) fn pop_until(&mut self, deadline: Ns) -> Option<TimedEvent<P>> {
        let (key, slot) = self.cal.pop_until(deadline.0)?;
        let (node, kind) = self.slab[slot as usize]
            .take()
            .expect("queue entry without slab body");
        self.free.push(slot);
        Some(TimedEvent {
            at: Ns((key >> 64) as u64),
            seq: key as u64,
            node,
            kind,
        })
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.cal.len()
    }
}

/// Test-only probe over the engine's real event queue, so differential
/// oracle tests outside this crate can drive `EventQueue` (calendar
/// queue + slab) against a reference implementation. Hidden: not API.
#[doc(hidden)]
pub mod queue_testing {
    use super::{EventKind, EventQueue};
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
            let ev = self.q.pop_until(Ns::MAX)?;
            let EventKind::Timer { token } = ev.kind else {
                unreachable!("probe pushes timers only")
            };
            Some((ev.at.0, ev.seq, ev.node, token))
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
            self.q.slab.iter().filter(|s| s.is_some()).count()
        }

        /// Total slab slots ever allocated (live + free-listed).
        pub fn slab_capacity(&self) -> usize {
            self.q.slab.len()
        }
    }
}

/// Every node's name, back to back in one buffer: a world of many
/// thousand nodes holds two allocations for its names, not one each.
#[derive(Default)]
struct NodeNames {
    text: String,
    /// Where each node's name ends in `text`, by node id.
    ends: Vec<usize>,
}

impl NodeNames {
    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    fn get(&self, id: NodeId) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[id]]
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
    transmitters: Vec<Transmitter<P>>,
    /// Delivery target of each transmitter (peer node, peer port), in
    /// transmitter order — used to flush stalled packets on link-up.
    tx_targets: Vec<(NodeId, EventPort)>,
    /// Administrative per-node state: `false` while a node is crashed.
    /// All-up worlds pay one bool test per delivered event and nothing
    /// else, so runs without node dynamics stay byte-identical.
    node_up: Vec<bool>,
    /// Packets and timers dropped because their target node was down.
    node_down_drops: u64,
    queue: EventQueue<P>,
    now: Ns,
    rng: SmallRng,
    /// The trace log (enable before running to record).
    pub trace: Trace,
    counters: Counters,
    stopped: bool,
    started: bool,
    events_processed: u64,
    /// Portion of `events_processed` already flushed to [`PROCESS_EVENTS`].
    events_flushed: u64,
    event_limit: u64,
    /// Scratch deque reused by [`Sim::set_link_up`] so flushing a stalled
    /// link allocates nothing in steady state.
    stall_scratch: VecDeque<P>,
}

impl<P: Payload> Sim<P> {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            names: NodeNames::default(),
            ports: Vec::new(),
            transmitters: Vec::new(),
            tx_targets: Vec::new(),
            node_up: Vec::new(),
            node_down_drops: 0,
            queue: EventQueue::new(),
            now: Ns::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            trace: Trace::new(),
            counters: Counters::new(),
            stopped: false,
            started: false,
            events_processed: 0,
            events_flushed: 0,
            event_limit: u64::MAX,
            stall_scratch: VecDeque::new(),
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
        self.connect_asym(a, b, cfg, cfg)
    }

    /// Connect two nodes with per-direction configurations
    /// (`cfg_ab` carries a→b, `cfg_ba` carries b→a).
    pub fn connect_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        cfg_ab: LinkCfg,
        cfg_ba: LinkCfg,
    ) -> (PortId, PortId) {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        let tx_ab = self.transmitters.len();
        self.transmitters.push(Transmitter::new(cfg_ab));
        let tx_ba = self.transmitters.len();
        self.transmitters.push(Transmitter::new(cfg_ba));
        let port_a = self.ports[a].len();
        let port_b = self.ports[b].len();
        let event_port =
            |port: PortId| EventPort::try_from(port).expect("too many ports on one node");
        let (peer_a, peer_b) = (event_port(port_a), event_port(port_b));
        self.tx_targets.push((b, peer_b)); // tx_ab delivers to b
        self.tx_targets.push((a, peer_a)); // tx_ba delivers to a
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
        self.push_event(at, node, EventKind::Timer { token });
    }

    /// Global counter value (see [`Ctx::count_id`]).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// The global counter table (interned; see [`Counters`]).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Intern a counter name ahead of the run so hot call sites can use
    /// [`Ctx::count_id`] without any string handling.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        self.counters.register(name)
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
    /// link was administratively down under [`crate::link::DownPolicy::Drop`]).
    pub fn total_down_drops(&self) -> u64 {
        self.transmitters.iter().map(|t| t.stats.down_drops).sum()
    }

    /// Whether the `dir` direction of link `link` is administratively up.
    pub fn link_up(&self, link: usize, dir: usize) -> bool {
        self.transmitters[link * 2 + dir].up
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
            let sender = self.tx_targets[tx ^ 1].0;
            self.push_event(at, sender, EventKind::LinkAdmin { tx, up });
        }
    }

    /// Schedule an administrative state change of `node` (crash when
    /// `up == false`, restart when `up == true`), `delay` from now — the
    /// node-mortality primitive of the dynamics subsystem (DESIGN.md
    /// §13). The change fires in `(time, seq)` total order with every
    /// other event; packets and timers already addressed to the node
    /// that pop while it is down are dropped and counted in
    /// [`Sim::node_down_drops`]. On the transition the node's
    /// [`Node::on_crash`] / [`Node::on_restart`] hook runs.
    pub fn schedule_node_admin(&mut self, delay: Ns, node: NodeId, up: bool) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        let at = self.now.saturating_add(delay);
        self.push_event(at, node, EventKind::NodeAdmin { up });
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

    /// Packets and timers dropped because their target node was down.
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
            self.with_node_ctx(node, |n, ctx| n.on_crash(ctx));
        } else if !was_up && up {
            self.with_node_ctx(node, |n, ctx| n.on_restart(ctx));
        }
    }

    /// Apply an administrative state change to both directions of link
    /// `link` immediately. On an up-transition, packets stalled by
    /// [`crate::link::DownPolicy::Stall`] are retransmitted in FIFO
    /// order starting at the current instant (no fault injection).
    pub fn set_link_up(&mut self, link: usize, up: bool) {
        assert!(link < self.link_count(), "unknown link {link}");
        self.set_link_dir_up(link * 2, up);
        self.set_link_dir_up(link * 2 + 1, up);
    }

    /// Apply an administrative state change to one *direction* of a link
    /// (transmitter index `idx`) — the unit the engine's `LinkAdmin`
    /// events operate on.
    fn set_link_dir_up(&mut self, idx: usize, up: bool) {
        let was_up = self.transmitters[idx].up;
        self.transmitters[idx].up = up;
        if up && !was_up {
            // Swap the stalled backlog out through the reusable
            // scratch deque instead of collecting into a fresh Vec:
            // recoveries are allocation-free in steady state, and the
            // (empty) scratch capacity parks in the transmitter until
            // the next flush swaps it back.
            let mut pending = std::mem::take(&mut self.stall_scratch);
            std::mem::swap(&mut pending, &mut self.transmitters[idx].stall_buf);
            let (peer_node, peer_port) = self.tx_targets[idx];
            while let Some(payload) = pending.pop_front() {
                match self.transmitters[idx].offer(self.now, payload.wire_len()) {
                    TxOutcome::Deliver { arrival } => {
                        let kind = EventKind::Packet {
                            port: peer_port,
                            payload,
                        };
                        self.queue.push(arrival, peer_node, kind);
                    }
                    TxOutcome::QueueDrop => {}
                }
            }
            self.stall_scratch = pending;
        }
    }

    /// Limit the number of processed events (runaway protection in tests).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
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

    #[inline]
    fn push_event(&mut self, at: Ns, node: NodeId, kind: EventKind<P>) {
        self.queue.push(at, node, kind);
    }

    /// Run `f` against `node_id` with a fully-wired [`Ctx`]. This is the
    /// single dispatch helper shared by event delivery and `start_all`
    /// (the seed engine duplicated this loop in both places). The
    /// context holds split borrows of the queue, so everything a node
    /// schedules is pushed straight into the heap — steady-state
    /// dispatch materialises no intermediate action list and performs
    /// no allocations.
    #[inline]
    fn with_node_ctx<F: FnOnce(&mut dyn Node<P>, &mut Ctx<'_, P>)>(
        &mut self,
        node_id: NodeId,
        f: F,
    ) {
        // Split borrows: the node lives in `self.nodes`, everything the
        // Ctx exposes lives in *other* fields, so the node can be handed
        // out by `&mut` directly.
        let node = &mut *self.nodes[node_id];
        let mut ctx = Ctx {
            now: self.now,
            node: node_id,
            node_name: self.names.get(node_id),
            ports: &self.ports[node_id],
            transmitters: &mut self.transmitters,
            rng: &mut self.rng,
            trace: &mut self.trace,
            counters: &mut self.counters,
            queue: &mut self.queue,
            stopped: &mut self.stopped,
        };
        f(node, &mut ctx);
    }

    #[inline]
    fn dispatch(&mut self, ev: TimedEvent<P>) {
        // Down-node check first: a crashed node receives neither packets
        // nor timers (its pending timers are part of the volatile state
        // lost in the crash). One bool test on the hot path, before the
        // packet log, so all-up runs are byte-identical to the
        // pre-node-dynamics engine. LinkAdmin is engine state, not node
        // state: it applies even while the owning endpoint is down.
        if !self.node_up[ev.node]
            && !matches!(
                ev.kind,
                EventKind::NodeAdmin { .. } | EventKind::LinkAdmin { .. }
            )
        {
            self.node_down_drops += 1;
            return;
        }
        match ev.kind {
            EventKind::Packet { port, payload } => {
                // Lazy packet log: encodes the payload only when the
                // trace was explicitly asked to record packet digests.
                if self.trace.packet_log_enabled() {
                    let bytes = payload.encode();
                    self.trace.push(
                        self.now,
                        ev.node,
                        self.names.get(ev.node),
                        format_args!(
                            "pkt rx port={} len={} fnv64={:016x}",
                            port,
                            bytes.len(),
                            fnv64(&bytes)
                        ),
                    );
                }
                self.with_node_ctx(ev.node, move |node, ctx| {
                    node.on_packet(ctx, port as PortId, payload);
                });
            }
            EventKind::Timer { token } => {
                self.with_node_ctx(ev.node, move |node, ctx| node.on_timer(ctx, token));
            }
            EventKind::LinkAdmin { tx, up } => self.set_link_dir_up(tx, up),
            EventKind::NodeAdmin { up } => self.apply_node_admin(ev.node, up),
        }
    }

    fn start_all(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node_id in 0..self.nodes.len() {
            self.with_node_ctx(node_id, |node, ctx| node.on_start(ctx));
        }
    }

    /// Run until the event queue is empty, a node calls [`Ctx::stop`], or
    /// the event limit is hit.
    pub fn run(&mut self) {
        self.run_until(Ns::MAX);
    }

    /// Run until virtual time `deadline` (events at exactly `deadline` are
    /// processed), the queue drains, or a stop is requested.
    pub fn run_until(&mut self, deadline: Ns) {
        self.start_all();
        while !self.stopped && self.events_processed < self.event_limit {
            let Some(ev) = self.queue.pop_until(deadline) else {
                break;
            };
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.events_processed += 1;
            self.dispatch(ev);
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

    /// True if a stop was requested.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }
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
            let pongs = ctx.counter_id("pongs");
            ctx.count_id(pongs, 1);
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
        assert_eq!(sim.counter("pongs"), 1);
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
        // A 72-byte stand-in for `lispwire::Packet` with no niche to
        // hide a tag in: node id, port and both enum tags must fit in
        // 16 bytes, or every queued packet grows by a word again.
        type P = [u64; 9];
        assert!(
            std::mem::size_of::<Option<(NodeId, EventKind<P>)>>() <= std::mem::size_of::<P>() + 16
        );
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
    fn corruption_flips_one_bit() {
        let mut sim: Sim = Sim::new(5);
        let s = sim.add_node("s", Box::new(Tap::new(vec![vec![0u8; 64]])));
        let c = sim.add_node("c", Box::new(Tap::<Vec<u8>>::sink()));
        sim.connect(s, c, LinkCfg::lan().with_corrupt_prob(1.0));
        sim.schedule_timer(s, Ns::ZERO, 0);
        sim.run();
        let got = &sim.node_ref::<Tap>(c).received[0].1;
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        assert_eq!(sim.link_stats(0, 0).corrupted, 1);
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
    fn event_limit_halts() {
        struct Looper;
        impl Node for Looper {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                ctx.set_timer(Ns::from_us(1), token + 1);
            }
        }
        let mut sim: Sim = Sim::new(1);
        let l = sim.add_node("loop", Box::new(Looper));
        sim.schedule_timer(l, Ns::ZERO, 0);
        sim.set_event_limit(100);
        sim.run();
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn stop_halts_immediately() {
        struct Stopper {
            fired: u64,
        }
        impl Node for Stopper {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.fired += 1;
                ctx.stop();
            }
        }
        let mut sim: Sim = Sim::new(1);
        let s = sim.add_node("s", Box::new(Stopper { fired: 0 }));
        sim.schedule_timer(s, Ns::from_ms(1), 0);
        sim.schedule_timer(s, Ns::from_ms(2), 1);
        sim.run();
        assert!(sim.is_stopped());
        assert_eq!(sim.node_ref::<Stopper>(s).fired, 1);
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
    fn counter_ids_and_names_agree() {
        struct CountBoth {
            id: Option<CounterId>,
        }
        impl Node for CountBoth {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.id = Some(ctx.counter_id("events.seen"));
                ctx.set_timer(Ns::from_ms(1), 0);
                ctx.set_timer(Ns::from_ms(2), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token == 0 {
                    ctx.count_id(self.id.unwrap(), 2);
                } else {
                    // Re-interning mid-run resolves to the same counter.
                    let id = ctx.counter_id("events.seen");
                    ctx.count_id(id, 3);
                }
            }
        }
        let mut sim: Sim = Sim::new(1);
        let pre = sim.register_counter("events.seen");
        sim.add_node("c", Box::new(CountBoth { id: None }));
        sim.run();
        assert_eq!(sim.counter("events.seen"), 5);
        assert_eq!(sim.counters().value(pre), 5);
        assert_eq!(sim.counters().sorted(), vec![("events.seen", 5)]);
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
        let f = sim.add_node(
            "fragile",
            Box::new(Fragile {
                got: Vec::new(),
                heartbeat: 0,
                crashes: 0,
                restarts: 0,
            }),
        );
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

    #[test]
    fn redundant_node_admin_is_a_noop() {
        let mut sim: Sim = Sim::new(1);
        let f = sim.add_node(
            "fragile",
            Box::new(Fragile {
                got: Vec::new(),
                heartbeat: 0,
                crashes: 0,
                restarts: 0,
            }),
        );
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
    fn stall_policy_flushes_on_link_up() {
        use crate::link::DownPolicy;
        let mut sim: Sim = Sim::new(1);
        let burst = (0..3u8).map(|t| vec![t; 16]).collect();
        let b = sim.add_node("burst", Box::new(Tap::new(burst)));
        let s = sim.add_node("sink", Box::new(Tap::<Vec<u8>>::sink()));
        sim.connect(
            b,
            s,
            LinkCfg::wan(Ns::from_ms(5)).with_down_policy(DownPolicy::Stall { max_packets: 2 }),
        );
        sim.schedule_link_admin(Ns::ZERO, 0, false);
        for t in 0..3u64 {
            sim.schedule_timer(b, Ns::from_ms(1).saturating_add(Ns::from_ms(t)), t);
        }
        sim.schedule_link_admin(Ns::from_ms(50), 0, true);
        sim.run();
        let got = &sim.node_ref::<Tap>(s).received;
        // Two packets stalled (FIFO), the third overflowed the stall buffer.
        let tags: Vec<u8> = got.iter().map(|(_, bytes)| bytes[0]).collect();
        assert_eq!(tags, vec![0, 1]);
        assert!(got.iter().all(|(at, _)| *at >= Ns::from_ms(55)));
        assert_eq!(sim.link_stats(0, 0).stalled, 2);
        assert_eq!(sim.link_stats(0, 0).down_drops, 1);
        assert!(sim.link_up(0, 0));
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
