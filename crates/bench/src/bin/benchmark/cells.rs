//! The ledger's fixed cells: single-layer measurements taken in every
//! traced run, whatever the workload, by timing calls into public
//! product functions from outside. Each cell repeats a fixed amount of
//! work a few times and reports the best.

use crate::calib::Calib;
use crate::span::{summarise, Tracer};
use crate::stats::median;
use crate::workloads::{self, Kind, SplitMix};
use inet::{LpmTrie, Prefix};
use lispdp::{CacheSpec, EvictionPolicy, MapCache};
use lispwire::lisp::LispRepr;
use lispwire::lispctl::{Locator, MapRecord};
use lispwire::{Ipv4Address, Packet};
use netsim::calq::CalendarQueue;
use netsim::{Ctx, LinkCfg, Node, Ns, Sim};
use pcelisp::scenario::CpKind;
use pcelisp::spec::ScenarioSpec;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Metrics = BTreeMap<String, f64>;

/// Best of `reps` runs of `f`, which returns its own cost per operation.
/// These cells are too short for the calibration kernel to bracket, and
/// on a shared host interference only ever adds time, so the minimum is
/// the steadiest estimate of the code's own cost.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per operation of `ops` calls to `f`.
fn ns_per_op(ops: u32, mut f: impl FnMut(u32)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(ops)
}

fn data_packet() -> Packet {
    Packet::udp(
        Ipv4Address::new(100, 0, 0, 5),
        7000,
        Ipv4Address::new(101, 0, 0, 7),
        7001,
        vec![0u8; 256],
    )
}

/// Echo every packet back out of the port it came in on, `remaining`
/// times (`None` = for ever); a timer kicks off one packet.
struct Echo {
    remaining: Option<u64>,
}

impl Node<Packet> for Echo {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, _token: u64) {
        ctx.send(0, data_packet());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, port: usize, pkt: Packet) {
        match &mut self.remaining {
            Some(0) => {}
            Some(n) => {
                *n -= 1;
                ctx.send(port, pkt);
            }
            None => {
                ctx.send(port, pkt);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

/// Engine floor: `leaves` echo nodes around one hub (`leaves = 1` is
/// ping-pong), each doing `rounds` round trips. Returns ns per event.
fn engine_floor(leaves: usize, rounds: u64) -> f64 {
    let mut sim: Sim<Packet> = Sim::new(1);
    let hub = sim.add_node("hub", Box::new(Echo { remaining: None }));
    for i in 0..leaves {
        let leaf = sim.add_node(
            &format!("leaf{i}"),
            Box::new(Echo {
                remaining: Some(rounds),
            }),
        );
        sim.connect(leaf, hub, LinkCfg::lan());
        sim.schedule_timer(leaf, Ns::ZERO, 0);
    }
    let start = Instant::now();
    sim.run_until(Ns::MAX);
    start.elapsed().as_secs_f64() * 1e9 / sim.events_processed() as f64
}

/// The classic hold model on the calendar queue: keep `depth` entries
/// pending, pop the earliest and push one a random step later.
fn calq_hold(depth: usize, ops: u32) -> f64 {
    let mut q = CalendarQueue::new();
    let mut rng = SplitMix(depth as u64);
    let mut seq = 0u64;
    let mut key = |at: u64| {
        seq += 1;
        (u128::from(at) << 64) | u128::from(seq)
    };
    for _ in 0..depth {
        q.push(key(rng.next() % 100_000), 0);
    }
    ns_per_op(ops, |_| {
        let (k, slot) = q.pop().expect("hold model keeps the queue non-empty");
        let at = (k >> 64) as u64 + 1 + rng.next() % 100_000;
        q.push(key(at), slot);
    })
}

fn map_record(i: u32) -> MapRecord {
    MapRecord {
        eid_prefix: Ipv4Address::from_u32(0x6400_0000 | (i << 8)),
        prefix_len: 24,
        ttl_minutes: 60,
        locators: vec![Locator::new(Ipv4Address::new(12, 0, 0, 1), 1, 100)],
    }
}

/// A bounded LRU of 32, full.
fn full_cache() -> MapCache {
    let mut cache = MapCache::from_spec(CacheSpec::bounded(32, EvictionPolicy::Lru));
    for i in 0..32 {
        cache.insert(map_record(i), Ns::ZERO);
    }
    cache
}

/// ns per `MapCache::lookup` of prefix `base + hash(i) % span`: `(0, 32)`
/// always hits the full cache, `(1024, 512)` never does.
fn mapcache_lookup(base: u32, span: u32, ops: u32) -> f64 {
    let mut cache = full_cache();
    ns_per_op(ops, |i| {
        let prefix = base + i.wrapping_mul(7919) % span;
        let eid = Ipv4Address::from_u32(0x6400_0000 | (prefix << 8) | 1);
        black_box(cache.lookup(eid, Ns::from_secs(1)).is_some());
    })
}

/// ns per `MapCache::insert` into the full cache, cycling 512 prefixes
/// so that every insert evicts.
fn mapcache_insert_evict(ops: u32) -> f64 {
    let mut cache = full_cache();
    ns_per_op(ops, |i| {
        cache.insert(map_record(32 + i % 512), Ns::from_secs(1));
    })
}

fn lpm_lookup(prefixes: u32, ops: u32) -> f64 {
    let mut trie = LpmTrie::new();
    for i in 0..prefixes {
        trie.insert(Prefix::new(Ipv4Address::from_u32(i << 12), 20), i);
    }
    let span = prefixes << 12;
    let mut x = 0u32;
    ns_per_op(ops, |_| {
        x = x.wrapping_add(2_654_435_761);
        black_box(trie.lookup_value(Ipv4Address::from_u32(x % span)));
    })
}

/// A LISP-encapsulated data packet: what xTRs put on the wire.
fn tunnel_packet() -> Packet {
    Packet::lisp_data(
        Ipv4Address::new(10, 0, 0, 1),
        Ipv4Address::new(12, 0, 0, 1),
        LispRepr::with_nonce(7, 2),
        data_packet(),
    )
}

fn packet_encode(ops: u32) -> f64 {
    let pkt = tunnel_packet();
    ns_per_op(ops, |_| {
        black_box(black_box(&pkt).encode());
    })
}

fn packet_decode(ops: u32) -> f64 {
    let bytes = tunnel_packet().encode();
    ns_per_op(ops, |_| {
        black_box(Packet::decode(black_box(&bytes)).expect("own encoding decodes"));
    })
}

/// Fig. 1 world run time with the string trace enabled ÷ disabled,
/// alternated `pairs` times.
fn trace_ratio(seed: u64, pairs: usize) -> f64 {
    let run = |trace: bool| {
        let mut world = ScenarioSpec::fig1(CpKind::Pce).build(seed);
        if trace {
            world.sim.trace.enable();
        }
        world.start_flow(0);
        let start = Instant::now();
        world.sim.run_until(Ns::from_secs(5));
        start.elapsed().as_secs_f64()
    };
    let (mut on, mut off) = (0.0, 0.0);
    for _ in 0..pairs {
        off += run(false);
        on += run(true);
    }
    on / off
}

/// Differential worlds: one topology and workload, the plane varied.
/// Three traced passes; each plane reports its best `run` span.
fn planes(seed: u64, quick: bool, m: &mut Metrics) {
    let inputs = workloads::plane_probe(seed, quick);
    let mut tr = Tracer::new(true);
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        outcomes = workloads::run_iteration(&inputs, &mut tr);
    }
    let sums = summarise(&tr.spans);
    for o in &outcomes {
        let best_ns = sums
            .iter()
            .filter_map(|s| s.cell_run_ns.get(&o.label))
            .min()
            .copied()
            .unwrap_or(0);
        let label = &o.label;
        m.insert(
            format!("plane.{label}.ns_per_event"),
            best_ns as f64 / o.events.max(1) as f64,
        );
        m.insert(format!("plane.{label}.events"), o.events as f64);
    }
}

/// Alternated pairs of registry passes behind `netsim.par.speedup`. The
/// median of two raw ratios read 0.88 to 1.65 on one host.
pub const SPEEDUP_PAIRS: usize = 5;

/// Registry passes at jobs = 1 and jobs = 2, alternated: per-experiment
/// time and ns/event, report rendering, and the sweep pool's speed-up.
fn registry_passes(seed: u64, quick: bool, calib: &mut Calib, m: &mut Metrics) {
    let serial = workloads::generate(Kind::Registry { jobs: 1 }, seed, quick);
    let pooled = workloads::generate(Kind::Registry { jobs: 2 }, seed, quick);
    let mut tr = Tracer::new(true);
    let (mut t1, mut speedups) = (Vec::new(), Vec::new());
    let mut events: BTreeMap<String, u64> = BTreeMap::new();
    let mut bytes = 0;
    // Each pass is weighed against the calibration runs around it, as a
    // timed iteration is: single passes move 20 % with the host.
    let mut before = calib.run();
    for _ in 0..if quick { 1 } else { SPEEDUP_PAIRS } {
        let start = Instant::now();
        let outcomes = workloads::run_iteration(&serial, &mut tr);
        let serial_s = start.elapsed().as_secs_f64();
        let between = calib.run();
        bytes = outcomes.iter().map(|o| o.report_bytes).sum();
        events = outcomes.into_iter().map(|o| (o.label, o.events)).collect();
        let start = Instant::now();
        workloads::run_iteration(&pooled, &mut Tracer::off());
        let pooled_s = start.elapsed().as_secs_f64();
        let after = calib.run();
        speedups.push((serial_s / (before + between)) / (pooled_s / (between + after)));
        t1.push(serial_s);
        before = after;
    }

    let sums = summarise(&tr.spans);
    let mut run_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sum in &sums {
        for (name, ns) in &sum.cell_run_ns {
            run_s.entry(name).or_default().push(*ns as f64 / 1e9);
        }
    }
    let render_s: Vec<f64> = sums
        .iter()
        .map(|s| s.phase("render").ns as f64 / 1e9)
        .collect();
    for (name, secs) in run_s {
        let secs = median(&secs);
        m.insert(format!("core.experiments.{name}_s"), secs);
        let ns = secs * 1e9 / events.get(name).copied().unwrap_or(0).max(1) as f64;
        m.insert(format!("core.experiments.{name}_ns_per_event"), ns);
    }
    let render = median(&render_s);
    m.insert("core.report.render_s".into(), render);
    m.insert("core.report.render_share".into(), render / median(&t1));
    m.insert("core.report.bytes".into(), bytes as f64);
    let speedup = median(&speedups);
    let (lo, hi) = speedups
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    m.insert("netsim.par.jobs1_pass_s".into(), median(&t1));
    m.insert("netsim.par.speedup".into(), speedup);
    m.insert("netsim.par.speedup_spread".into(), (hi - lo) / speedup);
    m.insert("netsim.par.efficiency".into(), speedup / 2.0);
}

/// Run every fixed cell. `quick` divides the op counts for the
/// unit-test smoke.
pub fn run_all(seed: u64, quick: bool, calib: &mut Calib, m: &mut Metrics) {
    let scale = if quick { 50 } else { 1 };
    let reps = if quick { 1 } else { 5 };

    m.insert(
        "netsim.sim.pingpong_ns_per_event".into(),
        best_of(reps, || engine_floor(1, 100_000 / u64::from(scale))),
    );
    m.insert(
        "netsim.sim.star64_ns_per_event".into(),
        best_of(reps, || engine_floor(63, 2_000 / u64::from(scale))),
    );
    for depth in [2, 64, 4096] {
        m.insert(
            format!("netsim.calq.hold_ns_per_op.d{depth}"),
            best_of(reps, || calq_hold(depth, 400_000 / scale)),
        );
    }
    let ops = 200_000 / scale;
    let mut cell = |name: &str, f: &mut dyn FnMut() -> f64| {
        m.insert(name.to_string(), best_of(reps, f));
    };
    cell("lispdp.mapcache.hit_ns", &mut || {
        mapcache_lookup(0, 32, ops)
    });
    cell("lispdp.mapcache.miss_ns", &mut || {
        mapcache_lookup(1024, 512, ops)
    });
    cell("lispdp.mapcache.insert_evict_ns", &mut || {
        mapcache_insert_evict(ops / 8)
    });
    cell("lispwire.packet.encode_ns", &mut || packet_encode(ops));
    cell("lispwire.packet.decode_ns", &mut || packet_decode(ops));
    for n in [64, 4096] {
        m.insert(
            format!("inet.lpm.lookup_ns.n{n}"),
            best_of(reps, || lpm_lookup(n, 1_000_000 / scale)),
        );
    }
    m.insert(
        "netsim.trace.enabled_ratio".into(),
        trace_ratio(seed, if quick { 2 } else { 100 }),
    );
    registry_passes(seed, quick, calib, m);
    planes(seed, quick, m);
}
