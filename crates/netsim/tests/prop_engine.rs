//! Property tests for the simulation engine: causal ordering, FIFO
//! tie-breaking, link-timing monotonicity, and seed determinism under
//! fault injection.

use netsim::{Ctx, LinkCfg, Node, Ns, Sim};
use proptest::prelude::*;

struct Recorder {
    fired: Vec<(Ns, u64)>,
}
impl Node for Recorder {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.fired.push((ctx.now(), token));
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

struct Blaster {
    sizes: Vec<u16>,
}
impl Node for Blaster {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        for &s in &self.sizes {
            ctx.send(0, vec![0u8; usize::from(s) + 1]);
        }
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

struct Sink {
    arrivals: Vec<(Ns, usize)>,
}
impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: usize, bytes: Vec<u8>) {
        self.arrivals.push((ctx.now(), bytes.len()));
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

proptest! {
    /// Timers fire in non-decreasing time order; equal times preserve
    /// scheduling (FIFO) order.
    #[test]
    fn timers_fire_in_order(delays in prop::collection::vec(0u64..1_000_000, 1..40)) {
        let mut sim = Sim::new(1);
        let r = sim.add_node("r", Box::new(Recorder { fired: vec![] }));
        for (i, &d) in delays.iter().enumerate() {
            sim.schedule_timer(r, Ns(d), i as u64);
        }
        sim.run();
        let fired = &sim.node_ref::<Recorder>(r).fired;
        prop_assert_eq!(fired.len(), delays.len());
        // Non-decreasing times.
        prop_assert!(fired.windows(2).all(|w| w[0].0 <= w[1].0));
        // FIFO among equal times: tokens with equal delay keep index order.
        for w in fired.windows(2) {
            if w[0].0 == w[1].0 {
                let d0 = delays[w[0].1 as usize];
                let d1 = delays[w[1].1 as usize];
                if d0 == d1 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO violated: {w:?}");
                }
            }
        }
    }

    /// FIFO links never reorder packets, and arrival spacing respects the
    /// serialisation time of each packet.
    #[test]
    fn links_preserve_order(sizes in prop::collection::vec(0u16..2000, 1..30),
                            bw in prop::sample::select(vec![1_000_000u64, 10_000_000, 1_000_000_000])) {
        let mut sim = Sim::new(2);
        let b = sim.add_node("b", Box::new(Blaster { sizes: sizes.clone() }));
        let s = sim.add_node("s", Box::new(Sink { arrivals: vec![] }));
        let cfg = LinkCfg::wan(Ns::from_ms(5)).with_bandwidth(bw).with_queue_bytes(u64::MAX);
        sim.connect(b, s, cfg);
        sim.schedule_timer(b, Ns::ZERO, 0);
        sim.run();
        let arrivals = &sim.node_ref::<Sink>(s).arrivals;
        prop_assert_eq!(arrivals.len(), sizes.len());
        for (i, &(t, len)) in arrivals.iter().enumerate() {
            prop_assert_eq!(len, usize::from(sizes[i]) + 1, "reordered at {}", i);
            if i > 0 {
                // Spacing >= this packet's serialisation time.
                let ser = cfg.serialization_time(len);
                let gap = t - arrivals[i - 1].0;
                prop_assert!(gap >= ser, "gap {gap} < ser {ser}");
            }
        }
    }

    /// Identical seeds give identical traces even with fault injection;
    /// event counts match exactly.
    #[test]
    fn deterministic_under_faults(seed in any::<u64>(), drop_p in 0.0f64..0.9) {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            sim.trace.enable();
            let b = sim.add_node("b", Box::new(Blaster { sizes: vec![100; 20] }));
            let s = sim.add_node("s", Box::new(Sink { arrivals: vec![] }));
            sim.connect(b, s, LinkCfg::wan(Ns::from_ms(1)).with_drop_prob(drop_p));
            sim.schedule_timer(b, Ns::ZERO, 0);
            sim.run();
            (sim.events_processed(), sim.total_fault_drops(), sim.node_ref::<Sink>(s).arrivals.len())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Conservation: everything sent is either delivered or accounted as
    /// a drop (fault or queue).
    #[test]
    fn packet_conservation(n in 1usize..60, drop_p in 0.0f64..1.0, qbytes in 100u64..100_000) {
        let mut sim = Sim::new(7);
        let b = sim.add_node("b", Box::new(Blaster { sizes: vec![500; n] }));
        let s = sim.add_node("s", Box::new(Sink { arrivals: vec![] }));
        sim.connect(b, s, LinkCfg::wan(Ns::from_ms(1)).with_drop_prob(drop_p).with_queue_bytes(qbytes));
        sim.schedule_timer(b, Ns::ZERO, 0);
        sim.run();
        let delivered = sim.node_ref::<Sink>(s).arrivals.len() as u64;
        let dropped = sim.total_fault_drops() + sim.total_queue_drops();
        prop_assert_eq!(delivered + dropped, n as u64);
    }
}

/// A node that both records timer firings and emits traffic: each timer
/// sends one packet out port 0 and logs a trace line, so a run mixes
/// timer and packet events through the queue.
struct MixEmitter {
    fired: Vec<(Ns, u64)>,
    payload: usize,
}
impl Node for MixEmitter {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.fired.push((ctx.now(), token));
        ctx.trace(format_args!("timer {token}"));
        ctx.send(0, vec![0u8; self.payload]);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

/// A sink that records and traces every arrival.
struct TracingSink {
    arrivals: Vec<(Ns, usize)>,
}
impl Node for TracingSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: usize, bytes: Vec<u8>) {
        self.arrivals.push((ctx.now(), bytes.len()));
        ctx.trace(format_args!("rx {}", bytes.len()));
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any_ref(&self) -> &dyn std::any::Any {
        self
    }
}

proptest! {
    /// The rewritten single-heap queue preserves FIFO order among
    /// same-timestamp events for arbitrary timer/packet mixes, and two
    /// runs of the same mix with the same seed produce byte-identical
    /// traces.
    #[test]
    fn queue_fifo_and_trace_stable_under_event_mix(
        // Coarse delays force many exact timestamp collisions.
        delays in prop::collection::vec(0u64..50, 2..60),
        payload in 1usize..600,
        drop_p in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            sim.trace.enable();
            let e = sim.add_node("emitter", Box::new(MixEmitter { fired: vec![], payload }));
            let s = sim.add_node("sink", Box::new(TracingSink { arrivals: vec![] }));
            sim.connect(e, s, LinkCfg::wan(Ns::from_us(10)).with_drop_prob(drop_p));
            for (i, &d) in delays.iter().enumerate() {
                sim.schedule_timer(e, Ns::from_us(d), i as u64);
            }
            sim.run();
            let fired = sim.node_ref::<MixEmitter>(e).fired.clone();
            let arrivals = sim.node_ref::<TracingSink>(s).arrivals.len();
            (sim.trace.render(), fired, arrivals, sim.events_processed())
        };

        let (trace_a, fired_a, arrivals_a, events_a) = run(seed);

        // All timers fired, in non-decreasing time order.
        prop_assert_eq!(fired_a.len(), delays.len());
        prop_assert!(fired_a.windows(2).all(|w| w[0].0 <= w[1].0));
        // FIFO among identical timestamps: scheduling order == firing
        // order, i.e. tokens with equal delays keep their index order.
        for w in fired_a.windows(2) {
            if w[0].0 == w[1].0 && delays[w[0].1 as usize] == delays[w[1].1 as usize] {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated: {:?}", w);
            }
        }

        // Same seed ⇒ byte-identical trace and identical schedule.
        let (trace_b, fired_b, arrivals_b, events_b) = run(seed);
        prop_assert_eq!(trace_a.as_bytes(), trace_b.as_bytes());
        prop_assert_eq!(fired_a, fired_b);
        prop_assert_eq!(arrivals_a, arrivals_b);
        prop_assert_eq!(events_a, events_b);
    }
}
