//! Conservative parallel DES over a link-latency domain partition
//! (DESIGN.md §12).
//!
//! The world is split into **domains**: connected components under the
//! relation "joined by a link whose one-way delay (either direction) is
//! below the configured lookahead floor". Any packet crossing domains
//! therefore arrives at least `L` nanoseconds after it was sent, where
//! `L` (the **lookahead**) is the minimum cross-domain per-direction
//! delay. That bound makes windows of virtual time `[ws, ws + L)`
//! independent between domains: each domain can process its own events
//! for the window on its own thread, and anything it sends to another
//! domain lands at or beyond the window's end (`horizon`).
//!
//! Determinism (§2) survives because the window mechanism reconstructs
//! the *serial* `(at, seq)` total order exactly at each barrier:
//!
//! * Events already carrying serial keys are routed to their node's
//!   domain queue with keys intact.
//! * A push made *during* a window cannot know its serial sequence
//!   number (that depends on how the other domains' dispatches
//!   interleave), so local in-window pushes get **provisional** keys —
//!   `(at, PROV_BIT | k)` with `k` counting allocations — which sort
//!   after every true key at the same instant (correct: the serial
//!   engine would also have stamped them after everything already
//!   pending), while cross-domain and post-horizon pushes are buffered
//!   unkeyed.
//! * At the barrier, the main thread **walks** the per-domain dispatch
//!   records in merged `(at, seq)` order — exactly the order the serial
//!   engine would have popped them — assigning true sequence numbers to
//!   every push in walk order, resolving provisional ids, stamping the
//!   buffered pushes, and appending each dispatch's trace slice. The
//!   walk is the serial engine's bookkeeping replayed after the fact;
//!   the traces, counters, event counts, and final queue contents are
//!   byte-identical to a serial run at any lane count.
//!
//! Worlds the scheme cannot reproduce are refused at
//! partition-build time (`Sim::enable_partition`) and run serially
//! instead: links with fault
//! injection (the global RNG is consumed in serial event order),
//! worlds that collapse into a single domain (e.g. a zero-latency
//! cross link), and a zero lookahead floor. `Ctx::rng` and `Ctx::stop`
//! are not available to nodes inside a window (barrier-time panic).
//!
//! Counter shards persist across runs inside the [`Partition`] so
//! `CounterId`s interned by nodes during a parallel run stay valid;
//! once a simulation has run parallel, every later eligible run takes
//! the parallel path even at one lane (`Sim::par_ran`).

use crate::counters::Counters;
use crate::link::{Transmitter, TxOutcome};
use crate::node::{Ctx, EventPort, Node, NodeId, PortBinding, PortId};
use crate::payload::Payload;
use crate::sim::{EventKind, EventQueue, Sim};
use crate::time::Ns;
use crate::trace::{fnv64, Trace, TraceEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// High bit of a key's sequence half: marks a provisional id allocated
/// inside a window. True sequence numbers stay below this (a simulation
/// would need >9 quintillion events to collide).
pub(crate) const PROV_BIT: u64 = 1 << 63;

/// Process-wide lane override (tests); 0 = unset, fall back to the
/// `PCELISP_LANES` environment knob.
static LANES_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the process-wide default lane count (`0` clears the
/// override and restores the `PCELISP_LANES` environment knob). Test
/// hook: lets one process compare lane counts without re-exec.
pub fn set_lanes_override(lanes: usize) {
    LANES_OVERRIDE.store(lanes, Ordering::Relaxed);
}

/// The lane count `Sim::run_until` uses for partitioned worlds: the
/// [`set_lanes_override`] value if set, else the `PCELISP_LANES`
/// environment variable (read once per process), else 1 (serial).
pub fn default_lanes() -> usize {
    let ov = LANES_OVERRIDE.load(Ordering::Relaxed);
    if ov > 0 {
        return ov;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PCELISP_LANES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .unwrap_or(1)
    })
}

/// Per-domain remapped port table: domain → local node → bindings whose
/// `tx_index` points into the domain's local transmitter vector.
type DomainPorts = Vec<Vec<Vec<PortBinding>>>;

/// A domain partition of a built world (built by
/// `Sim::enable_partition`),
/// carried by `Sim` between runs. Holds the node/transmitter→domain
/// maps, the lookahead bound, the remapped per-domain port tables, and
/// the persistent per-domain counter shards.
#[derive(Debug)]
pub struct Partition {
    /// node → domain (dense ids, by first appearance in node order).
    domain_of: Vec<u32>,
    /// node → index within its domain's `nodes_of` list.
    node_local: Vec<u32>,
    /// domain → member node ids (ascending).
    nodes_of: Vec<Vec<NodeId>>,
    /// transmitter → owning domain (the *sender* endpoint's domain).
    tx_domain: Vec<u32>,
    /// transmitter → index within its domain's `txs_of` list.
    tx_local: Vec<u32>,
    /// domain → member transmitter indices (ascending).
    txs_of: Vec<Vec<usize>>,
    /// Ports with `tx_index` remapped to domain-local indices.
    ports_of: DomainPorts,
    /// Snapshot of `Sim::tx_targets` (stall-flush delivery targets).
    tx_targets: Vec<(NodeId, EventPort)>,
    /// Minimum cross-domain per-direction delay, ns (`u64::MAX` when no
    /// link crosses domains — fully independent components).
    lookahead: u64,
    /// World shape at build time; a mismatch at run time means the
    /// topology changed and the partition is silently ignored.
    built_nodes: usize,
    built_txs: usize,
    /// Persistent per-domain counter shards (empty until the first
    /// parallel run; names synced from the main table each run, values
    /// merged back and zeroed at each gather).
    shards: Vec<Counters>,
    /// Set when some shard's id layout diverged from the main table
    /// (two domains first-registered different names in one window). A
    /// later *serial* run would then misresolve shard-interned
    /// `CounterId`s, so it panics instead of corrupting counters.
    shards_divergent: bool,
}

impl Partition {
    /// Number of domains.
    pub(crate) fn n_domains(&self) -> usize {
        self.nodes_of.len()
    }

    /// Whether the world still has the shape this partition was built
    /// for (nodes and transmitters are append-only).
    pub(crate) fn matches(&self, nodes: usize, txs: usize) -> bool {
        self.built_nodes == nodes && self.built_txs == txs
    }

    /// See [`Partition::shards_divergent`].
    pub(crate) fn divergent(&self) -> bool {
        self.shards_divergent
    }
}

/// Compute the domain partition of a built world, or `None` when the
/// world must stay serial: zero lookahead floor, no nodes, links with
/// fault injection (they consume the global RNG in serial event
/// order), or everything merging into a single domain.
pub(crate) fn build_partition<P: Payload>(sim: &Sim<P>, min_lookahead: Ns) -> Option<Partition> {
    let n_nodes = sim.nodes.len();
    let n_txs = sim.transmitters.len();
    if min_lookahead.0 == 0 || n_nodes == 0 {
        return None;
    }
    if sim
        .transmitters
        .iter()
        .any(|t| t.cfg.drop_prob > 0.0 || t.cfg.corrupt_prob > 0.0)
    {
        return None;
    }

    // Union-find (path halving) over nodes: merge the endpoints of any
    // link faster than the lookahead floor in either direction.
    let mut parent: Vec<u32> = (0..u32::try_from(n_nodes).expect("too many nodes")).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for l in 0..n_txs / 2 {
        // tx 2l carries a→b (delivers to b), tx 2l+1 carries b→a.
        let a = sim.tx_targets[2 * l + 1].0;
        let b = sim.tx_targets[2 * l].0;
        let d = sim.transmitters[2 * l]
            .cfg
            .delay
            .min(sim.transmitters[2 * l + 1].cfg.delay);
        if d < min_lookahead {
            let ra = find(&mut parent, a as u32);
            let rb = find(&mut parent, b as u32);
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
            }
        }
    }

    // Dense domain ids by first appearance in node order.
    let mut domain_of = vec![0u32; n_nodes];
    let mut node_local = vec![0u32; n_nodes];
    let mut nodes_of: Vec<Vec<NodeId>> = Vec::new();
    let mut root_dom: Vec<u32> = vec![u32::MAX; n_nodes];
    for (i, slot) in domain_of.iter_mut().enumerate() {
        let r = find(&mut parent, i as u32) as usize;
        if root_dom[r] == u32::MAX {
            root_dom[r] = u32::try_from(nodes_of.len()).expect("too many domains");
            nodes_of.push(Vec::new());
        }
        let d = root_dom[r];
        *slot = d;
        node_local[i] = u32::try_from(nodes_of[d as usize].len()).expect("domain too large");
        nodes_of[d as usize].push(i);
    }
    let nd = nodes_of.len();
    if nd < 2 {
        return None;
    }

    // Transmitters: owned by the sender endpoint's domain (the sender's
    // dispatch mutates them via `Ctx::send`), and the lookahead is the
    // minimum delay of any direction that crosses domains.
    let mut tx_domain = vec![0u32; n_txs];
    let mut tx_local = vec![0u32; n_txs];
    let mut txs_of: Vec<Vec<usize>> = vec![Vec::new(); nd];
    let mut lookahead = u64::MAX;
    for (i, slot) in tx_domain.iter_mut().enumerate() {
        let sender = sim.tx_targets[i ^ 1].0;
        let receiver = sim.tx_targets[i].0;
        let d = domain_of[sender];
        *slot = d;
        tx_local[i] = u32::try_from(txs_of[d as usize].len()).expect("domain too large");
        txs_of[d as usize].push(i);
        if domain_of[receiver] != d {
            lookahead = lookahead.min(sim.transmitters[i].cfg.delay.0);
        }
    }
    debug_assert!(lookahead >= min_lookahead.0, "merge invariant violated");

    let ports_of: DomainPorts = nodes_of
        .iter()
        .map(|members| {
            members
                .iter()
                .map(|&nid| {
                    sim.ports[nid]
                        .iter()
                        .map(|pb| PortBinding {
                            tx_index: tx_local[pb.tx_index] as usize,
                            ..*pb
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    Some(Partition {
        domain_of,
        node_local,
        nodes_of,
        tx_domain,
        tx_local,
        txs_of,
        ports_of,
        tx_targets: sim.tx_targets.clone(),
        lookahead,
        built_nodes: n_nodes,
        built_txs: n_txs,
        shards: Vec::new(),
        shards_divergent: false,
    })
}

/// Where one in-window push went (see [`ParHooks::route`]): the tags,
/// in push order, drive the barrier walk's sequence-number assignment.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PushTag {
    /// Enqueued locally under a provisional key (pops inside this
    /// window; resolved to a true sequence number during the walk).
    Window,
    /// Held in the domain's buffer (cross-domain, or at/after the
    /// horizon); stamped and routed at the barrier.
    Buffered,
}

/// A push held back until the barrier.
#[derive(Debug)]
pub(crate) struct BufferedPush<P> {
    at: Ns,
    node: NodeId,
    kind: EventKind<P>,
    /// True sequence number, stamped during the walk.
    seq: u64,
}

/// Split borrows of a domain's routing state, carried inside [`Ctx`]
/// while a dispatch runs in a parallel window. `Ctx::push_event`
/// forwards every schedule through [`ParHooks::route`].
pub(crate) struct ParHooks<'a, P: Payload> {
    pub(crate) horizon: u64,
    pub(crate) my_domain: u32,
    pub(crate) domain_of: &'a [u32],
    pub(crate) prov_count: &'a mut u64,
    pub(crate) push_log: &'a mut Vec<PushTag>,
    pub(crate) buffered: &'a mut Vec<BufferedPush<P>>,
    pub(crate) rng_touched: &'a mut bool,
}

impl<P: Payload> ParHooks<'_, P> {
    /// The parallel counterpart of `EventQueue::push`: same `Ns::MAX`
    /// semantics (never enqueued, no sequence number), but the key is
    /// provisional (local, in-window) or deferred (everything else).
    pub(crate) fn route(
        &mut self,
        at: Ns,
        node: NodeId,
        kind: EventKind<P>,
        queue: &mut EventQueue<P>,
    ) {
        if at == Ns::MAX {
            return;
        }
        if self.domain_of[node] == self.my_domain && at.0 < self.horizon {
            *self.prov_count += 1;
            let key = (u128::from(at.0) << 64) | u128::from(PROV_BIT | *self.prov_count);
            queue.push_with_key(key, node, kind);
            self.push_log.push(PushTag::Window);
        } else {
            debug_assert!(
                self.domain_of[node] == self.my_domain || at.0 >= self.horizon,
                "cross-domain push below the lookahead horizon"
            );
            self.buffered.push(BufferedPush {
                at,
                node,
                kind,
                seq: 0,
            });
            self.push_log.push(PushTag::Buffered);
        }
    }
}

/// One dispatched event, as the barrier walk replays it: its key halves
/// plus the start offsets of its push and trace slices (slice ends are
/// the next record's starts).
#[derive(Debug, Clone, Copy)]
struct DispatchRec {
    at: u64,
    /// Raw popped sequence half — may carry [`PROV_BIT`].
    seq: u64,
    push_start: u32,
    trace_start: u32,
}

/// Everything one domain owns while the parallel engine runs: its slice
/// of the world (nodes, names, transmitters, events), its shard of the
/// counters, a config-forked trace, and the per-window walk inputs.
struct DomainState<P: Payload> {
    id: u32,
    /// Bodies of this domain's nodes, locally indexed (`Partition::node_local`).
    nodes: Vec<Option<Box<dyn Node<P>>>>,
    /// Display names, moved (not cloned) out of the `Sim` for the run.
    names: Vec<String>,
    /// This domain's transmitters, locally indexed (`Partition::tx_local`).
    txs: Vec<Transmitter<P>>,
    /// Administrative node state, locally indexed (`Partition::node_local`).
    node_up: Vec<bool>,
    /// Packets/timers dropped because their target node was down.
    node_down_drops: u64,
    queue: EventQueue<P>,
    now: Ns,
    /// Never actually consumed (fault-free worlds only); exists because
    /// `Ctx` carries an RNG borrow. Touching it via `Ctx::rng` sets
    /// `rng_touched` and panics at the barrier.
    rng: SmallRng,
    trace: Trace,
    counters: Counters,
    stopped: bool,
    rng_touched: bool,
    prov_count: u64,
    records: Vec<DispatchRec>,
    push_log: Vec<PushTag>,
    buffered: Vec<BufferedPush<P>>,
}

impl<P: Payload> DomainState<P> {
    /// Process every pending event strictly before `horizon` — the
    /// domain-local mirror of `Sim::run_serial`'s loop, recording one
    /// [`DispatchRec`] per event for the barrier walk.
    fn run_window(&mut self, part: &Partition, horizon: u64) {
        while let Some(key) = self.queue.peek_key() {
            let at = (key >> 64) as u64;
            if at >= horizon {
                break;
            }
            let (key, node, kind) = self.queue.pop_entry().expect("peeked event vanished");
            debug_assert!(at >= self.now.0, "time went backwards");
            self.now = Ns(at);
            self.records.push(DispatchRec {
                at,
                seq: key as u64,
                push_start: u32::try_from(self.push_log.len()).expect("push log too large"),
                trace_start: u32::try_from(self.trace.len()).expect("trace too large"),
            });
            self.dispatch(part, horizon, node, kind);
        }
    }

    /// The domain-local mirror of `Sim::dispatch`.
    fn dispatch(&mut self, part: &Partition, horizon: u64, node: NodeId, kind: EventKind<P>) {
        // Down-node check, mirroring the serial engine exactly (before
        // the packet log, LinkAdmin exempt as engine state).
        if !self.node_up[part.node_local[node] as usize]
            && !matches!(kind, EventKind::NodeAdmin { .. })
            && !matches!(kind, EventKind::LinkAdmin { .. })
        {
            self.node_down_drops += 1;
            return;
        }
        match kind {
            EventKind::Packet { port, payload } => {
                if self.trace.packet_log_enabled() {
                    let bytes = payload.encode();
                    let local = part.node_local[node] as usize;
                    self.trace.push(
                        self.now,
                        node,
                        &self.names[local],
                        format_args!(
                            "pkt rx port={} len={} fnv64={:016x}",
                            port,
                            bytes.len(),
                            fnv64(&bytes)
                        ),
                    );
                }
                self.with_ctx(part, horizon, node, move |n, ctx| {
                    n.on_packet(ctx, port as PortId, payload);
                });
            }
            EventKind::Timer { token } => {
                self.with_ctx(part, horizon, node, move |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::LinkAdmin { tx, up } => self.set_link_dir_up(part, horizon, tx, up),
            EventKind::NodeAdmin { up } => {
                let local = part.node_local[node] as usize;
                let was_up = self.node_up[local];
                self.node_up[local] = up;
                if was_up && !up {
                    self.with_ctx(part, horizon, node, |n, ctx| n.on_crash(ctx));
                } else if !was_up && up {
                    self.with_ctx(part, horizon, node, |n, ctx| n.on_restart(ctx));
                }
            }
        }
    }

    /// The domain-local mirror of `Sim::with_node_ctx`, with the
    /// routing hooks installed.
    fn with_ctx<F: FnOnce(&mut dyn Node<P>, &mut Ctx<'_, P>)>(
        &mut self,
        part: &Partition,
        horizon: u64,
        node: NodeId,
        f: F,
    ) {
        let local = part.node_local[node] as usize;
        let Some(body) = self.nodes[local].as_deref_mut() else {
            return;
        };
        let mut ctx = Ctx {
            now: self.now,
            node,
            node_name: &self.names[local],
            ports: &part.ports_of[self.id as usize][local],
            transmitters: &mut self.txs,
            rng: &mut self.rng,
            trace: &mut self.trace,
            counters: &mut self.counters,
            queue: &mut self.queue,
            stopped: &mut self.stopped,
            par: Some(ParHooks {
                horizon,
                my_domain: self.id,
                domain_of: &part.domain_of,
                prov_count: &mut self.prov_count,
                push_log: &mut self.push_log,
                buffered: &mut self.buffered,
                rng_touched: &mut self.rng_touched,
            }),
        };
        f(body, &mut ctx);
    }

    /// The domain-local mirror of `Sim::set_link_dir_up`: flushed
    /// stall-buffer retransmissions are routed like any other push.
    fn set_link_dir_up(&mut self, part: &Partition, horizon: u64, tx: usize, up: bool) {
        let local = part.tx_local[tx] as usize;
        let was_up = self.txs[local].up;
        self.txs[local].up = up;
        if !up || was_up {
            return;
        }
        let (peer_node, peer_port) = part.tx_targets[tx];
        let mut hooks = ParHooks {
            horizon,
            my_domain: self.id,
            domain_of: &part.domain_of,
            prov_count: &mut self.prov_count,
            push_log: &mut self.push_log,
            buffered: &mut self.buffered,
            rng_touched: &mut self.rng_touched,
        };
        while let Some(payload) = self.txs[local].stall_buf.pop_front() {
            let len = payload.wire_len();
            match self.txs[local].offer(self.now, len) {
                TxOutcome::Deliver { arrival } => {
                    let kind = EventKind::Packet {
                        port: peer_port,
                        payload,
                    };
                    hooks.route(arrival, peer_node, kind, &mut self.queue);
                }
                TxOutcome::QueueDrop => {}
            }
        }
    }
}

/// Move the world's per-domain slices out of the `Sim` into domain
/// states (nodes, names, transmitters, pending events, counter shards).
fn scatter<P: Payload>(sim: &mut Sim<P>, part: &mut Partition) -> Vec<Mutex<DomainState<P>>> {
    let nd = part.n_domains();
    if part.shards.is_empty() {
        part.shards = (0..nd).map(|_| sim.counters.fork_registry()).collect();
    } else {
        for shard in &mut part.shards {
            shard.sync_names(&sim.counters);
        }
    }
    let mut txs: Vec<Vec<Transmitter<P>>> = (0..nd).map(|_| Vec::new()).collect();
    for (i, tx) in std::mem::take(&mut sim.transmitters)
        .into_iter()
        .enumerate()
    {
        txs[part.tx_domain[i] as usize].push(tx);
    }
    let mut domains: Vec<DomainState<P>> = (0..nd)
        .map(|d| DomainState {
            id: u32::try_from(d).expect("too many domains"),
            nodes: part.nodes_of[d]
                .iter()
                .map(|&nid| sim.nodes[nid].take())
                .collect(),
            names: part.nodes_of[d]
                .iter()
                .map(|&nid| std::mem::take(&mut sim.names[nid]))
                .collect(),
            txs: std::mem::take(&mut txs[d]),
            node_up: part.nodes_of[d].iter().map(|&nid| sim.node_up[nid]).collect(),
            node_down_drops: 0,
            queue: EventQueue::new(),
            now: sim.now,
            rng: SmallRng::seed_from_u64(0),
            trace: sim.trace.fork_config(),
            counters: std::mem::take(&mut part.shards[d]),
            stopped: false,
            rng_touched: false,
            prov_count: 0,
            records: Vec::new(),
            push_log: Vec::new(),
            buffered: Vec::new(),
        })
        .collect();
    while let Some((key, node, kind)) = sim.queue.pop_entry() {
        let d = part.domain_of[node] as usize;
        domains[d].queue.push_with_key(key, node, kind);
    }
    domains.into_iter().map(Mutex::new).collect()
}

/// Move everything back into the `Sim` after the last window: nodes,
/// names, transmitters, the remaining (true-keyed) events, and the
/// counter deltas (merged by *name*, in domain order, so the totals are
/// independent of per-shard id layout).
fn gather<P: Payload>(sim: &mut Sim<P>, part: &mut Partition, domains: Vec<Mutex<DomainState<P>>>) {
    let mut txs_back: Vec<Option<Transmitter<P>>> = (0..part.built_txs).map(|_| None).collect();
    for (d, m) in domains.into_iter().enumerate() {
        let mut dom = m.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (i, &nid) in part.nodes_of[d].iter().enumerate() {
            sim.nodes[nid] = dom.nodes[i].take();
            sim.names[nid] = std::mem::take(&mut dom.names[i]);
            sim.node_up[nid] = dom.node_up[i];
        }
        sim.node_down_drops += dom.node_down_drops;
        for (tx, &global) in dom.txs.drain(..).zip(&part.txs_of[d]) {
            txs_back[global] = Some(tx);
        }
        while let Some((key, node, kind)) = dom.queue.pop_entry() {
            debug_assert_eq!(
                key as u64 & PROV_BIT,
                0,
                "provisional key survived a window"
            );
            sim.queue.push_with_key(key, node, kind);
        }
        for (name, v) in dom.counters.iter() {
            // Zeros too: registration must reach the main table exactly
            // as a serial run's first use would have registered it.
            sim.counters.add_named(name, v);
        }
        dom.counters.reset_values();
        // Divergence check: shard ids resolve against the main table
        // only while the shard's names are a prefix of the main's.
        if !part.shards_divergent {
            let diverged = dom
                .counters
                .iter()
                .zip(sim.counters.iter())
                .any(|((a, _), (b, _))| a != b);
            part.shards_divergent = diverged;
        }
        part.shards[d] = std::mem::take(&mut dom.counters);
    }
    sim.transmitters = txs_back
        .into_iter()
        .map(|t| t.expect("transmitter lost in scatter"))
        .collect();
}

/// Replay one barrier: walk every domain's dispatch records in merged
/// `(at, true seq)` order — the serial pop order — assigning true
/// sequence numbers to each record's pushes, stamping buffered pushes,
/// appending trace slices, and finally routing the buffered pushes
/// into their target domains' queues under true keys.
fn walk<P: Payload>(
    guards: &mut [MutexGuard<'_, DomainState<P>>],
    part: &Partition,
    g: &mut u64,
    trace: &mut Trace,
    events_processed: &mut u64,
    now: &mut Ns,
) {
    let nd = guards.len();
    let mut rec_idx = vec![0usize; nd];
    let mut win_seq: Vec<Vec<u64>> = vec![Vec::new(); nd];
    let mut buf_cur = vec![0usize; nd];
    let trace_totals: Vec<usize> = guards.iter().map(|dom| dom.trace.len()).collect();
    let mut trace_iters: Vec<std::vec::IntoIter<TraceEvent>> = guards
        .iter_mut()
        .map(|dom| dom.trace.take_events().into_iter())
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    for (d, dom) in guards.iter().enumerate() {
        if let Some(rec) = dom.records.first() {
            debug_assert_eq!(rec.seq & PROV_BIT, 0, "first pop cannot be provisional");
            heap.push(Reverse((rec.at, rec.seq, d)));
        }
    }
    while let Some(Reverse((at, _seq, d))) = heap.pop() {
        let dom = &mut guards[d];
        let i = rec_idx[d];
        rec_idx[d] += 1;
        let rec = dom.records[i];
        let push_end = dom
            .records
            .get(i + 1)
            .map_or(dom.push_log.len(), |r| r.push_start as usize);
        for k in rec.push_start as usize..push_end {
            *g += 1;
            match dom.push_log[k] {
                PushTag::Window => win_seq[d].push(*g),
                PushTag::Buffered => {
                    dom.buffered[buf_cur[d]].seq = *g;
                    buf_cur[d] += 1;
                }
            }
        }
        let trace_end = dom
            .records
            .get(i + 1)
            .map_or(trace_totals[d], |r| r.trace_start as usize);
        for ev in trace_iters[d]
            .by_ref()
            .take(trace_end - rec.trace_start as usize)
        {
            trace.append_event(ev);
        }
        *events_processed += 1;
        *now = Ns(at);
        if let Some(next) = dom.records.get(rec_idx[d]) {
            let true_seq = if next.seq & PROV_BIT != 0 {
                win_seq[d][((next.seq & !PROV_BIT) - 1) as usize]
            } else {
                next.seq
            };
            heap.push(Reverse((next.at, true_seq, d)));
        }
    }
    for d in 0..nd {
        debug_assert_eq!(
            buf_cur[d],
            guards[d].buffered.len(),
            "unstamped buffered push"
        );
        let bufs = std::mem::take(&mut guards[d].buffered);
        for b in bufs {
            let key = (u128::from(b.at.0) << 64) | u128::from(b.seq);
            let target = part.domain_of[b.node] as usize;
            guards[target].queue.push_with_key(key, b.node, b.kind);
        }
        let dom = &mut guards[d];
        dom.records.clear();
        dom.push_log.clear();
        dom.prov_count = 0;
        assert!(
            !dom.rng_touched,
            "Ctx::rng is not available under the parallel engine (domain {d}): \
             the global RNG stream is consumed in serial event order"
        );
        assert!(
            !dom.stopped,
            "Ctx::stop is not supported under the parallel engine (domain {d})"
        );
    }
}

/// The shared window loop: find the global minimum pending time, form
/// the horizon, run one round of windows (`dispatch_round`), walk the
/// barrier. Loops until the queues drain past the deadline.
#[allow(clippy::too_many_arguments)]
fn drive<P: Payload>(
    domains: &[Mutex<DomainState<P>>],
    part: &Partition,
    deadline: Ns,
    g: &mut u64,
    trace: &mut Trace,
    events_processed: &mut u64,
    now: &mut Ns,
    dispatch_round: &mut dyn FnMut(u64),
) {
    let cap = deadline.0.saturating_add(1);
    loop {
        let mut ws = u64::MAX;
        for m in domains {
            let mut dom = m.lock().expect("domain state poisoned");
            if let Some(key) = dom.queue.peek_key() {
                ws = ws.min((key >> 64) as u64);
            }
        }
        if ws == u64::MAX || ws > deadline.0 {
            break;
        }
        let horizon = ws.saturating_add(part.lookahead).min(cap);
        dispatch_round(horizon);
        let mut guards: Vec<MutexGuard<'_, DomainState<P>>> = domains
            .iter()
            .map(|m| m.lock().expect("domain state poisoned"))
            .collect();
        walk(&mut guards, part, g, trace, events_processed, now);
    }
}

/// Round-barrier control block for the persistent worker pool.
struct CtlState {
    round: u64,
    horizon: u64,
    active: usize,
    shutdown: bool,
}

struct Ctl {
    m: Mutex<CtlState>,
    start: Condvar,
    done: Condvar,
}

impl Ctl {
    fn new() -> Self {
        Self {
            m: Mutex::new(CtlState {
                round: 0,
                horizon: 0,
                active: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn begin_round(&self, horizon: u64, workers: usize, cursor: &AtomicUsize) {
        let mut st = self.m.lock().expect("ctl poisoned");
        st.round += 1;
        st.horizon = horizon;
        st.active = workers;
        cursor.store(0, Ordering::Relaxed);
        drop(st);
        self.start.notify_all();
    }

    fn wait_done(&self) {
        let mut st = self.m.lock().expect("ctl poisoned");
        while st.active > 0 {
            st = self.done.wait(st).expect("ctl poisoned");
        }
    }

    fn shutdown(&self) {
        let mut st = self.m.lock().unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.start.notify_all();
    }
}

/// Decrements `Ctl::active` (and wakes the main thread) even when the
/// worker unwinds mid-round, so a panicking worker cannot leave the
/// barrier waiting forever — the panic instead surfaces through the
/// poisoned domain mutex at the next walk.
struct ActiveGuard<'a>(&'a Ctl);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.m.lock().unwrap_or_else(PoisonError::into_inner);
        st.active -= 1;
        if st.active == 0 {
            self.0.done.notify_all();
        }
    }
}

/// Signals worker shutdown when the main thread leaves the scope — on
/// the normal path and when unwinding out of a failed walk — so
/// `thread::scope`'s implicit join cannot hang on parked workers.
struct ShutdownGuard<'a>(&'a Ctl);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A persistent worker: wait for a round, claim domains off the shared
/// cursor, run their windows, report done; repeat until shutdown.
fn worker_loop<P: Payload>(
    ctl: &Ctl,
    cursor: &AtomicUsize,
    domains: &[Mutex<DomainState<P>>],
    part: &Partition,
) {
    let mut seen = 0u64;
    loop {
        let horizon;
        {
            let mut st = ctl.m.lock().expect("ctl poisoned");
            while st.round == seen && !st.shutdown {
                st = ctl.start.wait(st).expect("ctl poisoned");
            }
            if st.shutdown {
                return;
            }
            seen = st.round;
            horizon = st.horizon;
        }
        let _active = ActiveGuard(ctl);
        loop {
            let d = cursor.fetch_add(1, Ordering::Relaxed);
            if d >= domains.len() {
                break;
            }
            let mut dom = domains[d].lock().expect("domain state poisoned");
            dom.run_window(part, horizon);
        }
    }
}

/// The parallel counterpart of `Sim::run_serial`. Eligibility (a valid
/// partition, no event limit, not stopped) was checked by the caller;
/// `start_all` still runs serially here — it is exactly the serial
/// code path, so the start phase is trivially byte-identical and every
/// name registered in `on_start` lands in the main counter table
/// before the shards fork.
pub(crate) fn run_parallel<P: Payload>(sim: &mut Sim<P>, deadline: Ns, lanes: usize) {
    sim.start_all();
    if sim.stopped {
        // A node stopped the world during on_start; the serial loop
        // no-ops and applies the usual deadline bump.
        sim.run_serial(deadline);
        return;
    }
    let mut part = sim.partition.take().expect("eligibility checked by caller");
    let mut g = sim.queue.seq();
    let domains = scatter(sim, &mut part);
    let workers = lanes.min(part.n_domains());
    if workers <= 1 {
        drive(
            &domains,
            &part,
            deadline,
            &mut g,
            &mut sim.trace,
            &mut sim.events_processed,
            &mut sim.now,
            &mut |horizon| {
                for m in &domains {
                    m.lock()
                        .expect("domain state poisoned")
                        .run_window(&part, horizon);
                }
            },
        );
    } else {
        let ctl = Ctl::new();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| worker_loop(&ctl, &cursor, &domains, &part));
            }
            let _shutdown = ShutdownGuard(&ctl);
            drive(
                &domains,
                &part,
                deadline,
                &mut g,
                &mut sim.trace,
                &mut sim.events_processed,
                &mut sim.now,
                &mut |horizon| {
                    ctl.begin_round(horizon, workers, &cursor);
                    ctl.wait_done();
                },
            );
        });
    }
    if sim.now < deadline && deadline != Ns::MAX {
        sim.now = deadline;
    }
    gather(sim, &mut part, domains);
    sim.queue.set_seq(g);
    sim.partition = Some(part);
    sim.par_ran = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{DownPolicy, LinkCfg};

    /// Echoes every packet back out the port it arrived on.
    #[derive(Default)]
    struct Hub;
    impl Node for Hub {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: usize, bytes: Vec<u8>) {
            let rx = ctx.counter_id("hub.rx");
            ctx.count_id(rx, 1);
            ctx.trace(format_args!("hub rx port={port} len={}", bytes.len()));
            ctx.send(port, bytes);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn as_any_ref(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Sends a burst on a timer cadence; counts echoes via a counter
    /// interned lazily mid-run (exercises shard-id interning).
    struct Leaf {
        interval: Ns,
        remaining: u32,
        pongs: crate::counters::LazyCounter,
    }
    impl Node for Leaf {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            ctx.send(0, vec![token as u8; 64]);
            ctx.trace(format_args!("leaf tx #{token}"));
            ctx.set_timer(self.interval, token + 1);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: usize, _bytes: Vec<u8>) {
            self.pongs.add(ctx, "leaf.pong", 1);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn as_any_ref(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn star_world(leaves: usize, partitioned: bool) -> Sim {
        let mut sim: Sim = Sim::new(11);
        sim.trace.enable_packet_log();
        let hub = sim.add_node("hub", Box::new(Hub));
        for i in 0..leaves {
            let leaf = sim.add_node(
                &format!("leaf{i}"),
                Box::new(Leaf {
                    interval: Ns::from_us(150 + 7 * i as u64),
                    remaining: 40,
                    pongs: crate::counters::LazyCounter::new(),
                }),
            );
            sim.connect(leaf, hub, LinkCfg::wan(Ns::from_us(200)));
            let stagger = Ns::from_us(i as u64);
            sim.schedule_timer(leaf, stagger, 0);
        }
        if partitioned {
            assert_eq!(sim.enable_partition(Ns::from_us(100)), leaves + 1);
        }
        sim
    }

    fn fingerprint(sim: &Sim) -> (String, Vec<(String, u64)>, u64, Ns) {
        (
            sim.trace.render(),
            sim.counters()
                .sorted()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            sim.events_processed(),
            sim.now(),
        )
    }

    #[test]
    fn star_trace_byte_identical_across_lanes() {
        let mut serial = star_world(16, false);
        serial.run_until(Ns::from_ms(50));
        let want = fingerprint(&serial);
        assert!(want.2 > 1000, "workload too small to be meaningful");
        for lanes in [1, 2, 8] {
            let mut par = star_world(16, true);
            par.run_until_with_lanes(Ns::from_ms(50), lanes);
            assert_eq!(fingerprint(&par), want, "lanes={lanes} diverged");
        }
    }

    #[test]
    fn segmented_runs_match_serial_segmented_runs() {
        let deadlines = [Ns::from_ms(3), Ns::from_ms(17), Ns::from_ms(50)];
        let mut serial = star_world(8, false);
        let mut par = star_world(8, true);
        for (i, &d) in deadlines.iter().enumerate() {
            serial.run_until(d);
            // Alternate lane counts between segments: shards persist.
            par.run_until_with_lanes(d, [2, 1, 4][i]);
            assert_eq!(fingerprint(&par), fingerprint(&serial), "segment {i}");
        }
    }

    #[test]
    fn run_to_quiescence_matches_serial() {
        let mut serial = star_world(4, false);
        serial.run();
        let mut par = star_world(4, true);
        par.run_until_with_lanes(Ns::MAX, 3);
        assert_eq!(fingerprint(&par), fingerprint(&serial));
    }

    #[test]
    fn zero_latency_links_merge_domains_not_deadlock() {
        // A zero-delay hub-to-hub link merges its endpoints into one
        // domain (it can never be a cross-domain edge, so it cannot
        // shrink lookahead to zero); the leaf's 200µs link stays
        // cross-domain and the run completes with identical output.
        let build = |partitioned: bool| {
            let mut sim: Sim = Sim::new(3);
            sim.trace.enable();
            let h0 = sim.add_node("h0", Box::new(Hub));
            let h1 = sim.add_node("h1", Box::new(Hub));
            let leaf = sim.add_node(
                "leaf",
                Box::new(Leaf {
                    interval: Ns::from_us(300),
                    remaining: 10,
                    pongs: crate::counters::LazyCounter::new(),
                }),
            );
            sim.connect(leaf, h0, LinkCfg::wan(Ns::from_us(200)));
            sim.connect(h0, h1, LinkCfg::wan(Ns::ZERO));
            sim.schedule_timer(leaf, Ns::ZERO, 0);
            if partitioned {
                assert_eq!(sim.enable_partition(Ns::from_us(100)), 2);
            }
            sim
        };
        let mut serial = build(false);
        serial.run_until(Ns::from_ms(10));
        let mut merged = build(true);
        merged.run_until_with_lanes(Ns::from_ms(10), 8);
        assert_eq!(fingerprint(&merged), fingerprint(&serial));
    }

    #[test]
    fn all_links_below_lookahead_fall_back_to_single_domain() {
        let mut sim: Sim = Sim::new(5);
        let a = sim.add_node("a", Box::new(Hub));
        let b = sim.add_node("b", Box::new(Hub));
        sim.connect(a, b, LinkCfg::wan(Ns::ZERO));
        // One component -> no partition; serial path still runs fine.
        assert_eq!(sim.enable_partition(Ns::from_us(100)), 1);
        sim.run_until_with_lanes(Ns::from_ms(1), 8);
        assert_eq!(sim.now(), Ns::from_ms(1));
    }

    #[test]
    fn faulty_links_refuse_partition() {
        let mut sim: Sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(Hub));
        let b = sim.add_node("b", Box::new(Hub));
        sim.connect(a, b, LinkCfg::wan(Ns::from_ms(1)).with_drop_prob(0.1));
        assert_eq!(sim.enable_partition(Ns::from_us(100)), 1);
        assert!(build_partition(&sim, Ns::ZERO).is_none());
    }

    #[test]
    fn link_admin_and_stall_flush_match_serial() {
        let build = |partitioned: bool| {
            let mut sim: Sim = Sim::new(9);
            sim.trace.enable();
            let hub = sim.add_node("hub", Box::new(Hub));
            let leaf = sim.add_node(
                "leaf",
                Box::new(Leaf {
                    interval: Ns::from_us(120),
                    remaining: 60,
                    pongs: crate::counters::LazyCounter::new(),
                }),
            );
            sim.connect(
                leaf,
                hub,
                LinkCfg::wan(Ns::from_us(200))
                    .with_down_policy(DownPolicy::Stall { max_packets: 8 }),
            );
            sim.schedule_timer(leaf, Ns::ZERO, 0);
            // Outage crossing several lookahead windows.
            sim.schedule_link_admin(Ns::from_us(950), 0, false);
            sim.schedule_link_admin(Ns::from_us(3275), 0, true);
            if partitioned {
                assert_eq!(sim.enable_partition(Ns::from_us(100)), 2);
            }
            sim
        };
        let mut serial = build(false);
        serial.run_until(Ns::from_ms(20));
        for lanes in [1, 2] {
            let mut par = build(true);
            par.run_until_with_lanes(Ns::from_ms(20), lanes);
            assert_eq!(fingerprint(&par), fingerprint(&serial), "lanes={lanes}");
        }
    }

    #[test]
    fn node_admin_crash_restart_matches_serial() {
        let build = |partitioned: bool| {
            let mut sim: Sim = Sim::new(13);
            sim.trace.enable();
            let hub = sim.add_node("hub", Box::new(Hub));
            for i in 0..3u64 {
                let leaf = sim.add_node(
                    &format!("leaf{i}"),
                    Box::new(Leaf {
                        interval: Ns::from_us(130 + 11 * i),
                        remaining: 50,
                        pongs: crate::counters::LazyCounter::new(),
                    }),
                );
                sim.connect(leaf, hub, LinkCfg::wan(Ns::from_us(200)));
                sim.schedule_timer(leaf, Ns::from_us(i), 0);
            }
            // Hub outage crossing several 100µs lookahead windows:
            // in-flight leaf sends are dropped at the hub, later echoes
            // resume after the restart.
            sim.schedule_node_admin(Ns::from_us(1150), 0, false);
            sim.schedule_node_admin(Ns::from_us(3475), 0, true);
            if partitioned {
                assert_eq!(sim.enable_partition(Ns::from_us(100)), 4);
            }
            sim
        };
        let mut serial = build(false);
        serial.run_until(Ns::from_ms(20));
        let want_drops = serial.node_down_drops();
        assert!(want_drops > 0, "outage must actually drop deliveries");
        for lanes in [1, 2, 4] {
            let mut par = build(true);
            par.run_until_with_lanes(Ns::from_ms(20), lanes);
            assert_eq!(fingerprint(&par), fingerprint(&serial), "lanes={lanes}");
            assert_eq!(par.node_down_drops(), want_drops, "lanes={lanes}");
        }
    }

    /// Reaches for `Ctx::rng` from inside a window.
    struct RngUser;
    impl Node for RngUser {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            use rand::RngExt;
            let _ = ctx.rng().random_range(0..10u32);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn as_any_ref(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    #[should_panic(expected = "Ctx::rng is not available under the parallel engine")]
    fn rng_use_inside_window_panics_at_barrier() {
        let mut sim: Sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(RngUser));
        let b = sim.add_node("b", Box::new(Hub));
        sim.connect(a, b, LinkCfg::wan(Ns::from_ms(1)));
        sim.schedule_timer(a, Ns::from_us(5), 0);
        assert_eq!(sim.enable_partition(Ns::from_us(100)), 2);
        sim.run_until_with_lanes(Ns::from_ms(10), 2);
    }

    #[test]
    fn event_limit_forces_serial_path() {
        let mut sim = star_world(4, true);
        sim.set_event_limit(10);
        sim.run_until_with_lanes(Ns::from_ms(50), 8);
        assert_eq!(sim.events_processed(), 10);
        assert!(!sim.par_ran);
    }
}
