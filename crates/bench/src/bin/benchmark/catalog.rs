//! The names the benchmark emits: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! repeats them for the driver; a unit test keeps the two identical.

use pcelisp::experiments;
use pcelisp::scenario::CpKind;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "registry",
        why: "Every registry experiment E1-E13 at jobs=1 plus report rendering: the real traffic exp_all and the goldens run; every layer does some work and the sweep pool is bypassed.",
    },
    WorkloadDef {
        name: "registry_jobs",
        why: "The same registry pass at a fixed jobs=2, the default user path of exp_all: the only workload where the netsim::par sweep pool does the work.",
    },
    WorkloadDef {
        name: "dataplane_steady",
        why: "32 long CBR flows over 8 sites on 4 planes: after each first packet all work is warm forwarding (calendar queue, links, routers, xTR map-cache hit path); build is under 0.2 %.",
    },
    WorkloadDef {
        name: "resolution_storm",
        why: "4000 Zipf flows over 256 sites against a 32-entry LRU map-cache on all 8 planes: the working set is 8x the cache, so about half the packets take the miss path (DNS, map-request, evict).",
    },
    WorkloadDef {
        name: "world_build",
        why: "Build and drop 24 worlds (8 planes x 64/512/2048 sites) without running an event: core::spec::build is about all of the work; the bypass for every event-loop optimisation.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before the change counts as a regression.
    pub bound: Option<f64>,
    pub meaning: &'static str,
}

fn def(name: &str, unit: &'static str, better: Better, meaning: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        meaning,
    }
}

/// End-to-end metrics, measured with tracing off. No timing bound is
/// above 0.15, the most ISSUE 12 allows; `iter_cu_p50` and `peak_rss_mb`
/// are wider than the 0.10 and 0.05 first planned, on the A/A evidence
/// the README records. `failed_share` is not here because it is 0 on
/// every accepted run and the driver divides by the median: it is the
/// `failed` / `attempted` of the result line, and any failure makes the
/// run incorrect.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::Lower;
    let bounded = |name, unit, bound, meaning| MetricDef {
        bound: Some(bound),
        ..def(name, unit, Lower, meaning)
    };
    vec![
        bounded(
            "iter_cu_p50",
            "cu",
            0.15,
            "median over the timed iterations of iteration wall / mean wall of the calibration runs before and after it",
        ),
        bounded(
            "iter_cu_p75",
            "cu",
            0.15,
            "nearest-rank 75th percentile of the same (n >= 40, so ten samples lie beyond it)",
        ),
        bounded(
            "setup_s",
            "s",
            0.15,
            "median of the run's set-ups, one every 2.5 s of measuring: generate inputs from the seed, parse reference.json, one warm-up iteration; the first also holds process start",
        ),
        bounded(
            "peak_rss_mb",
            "MiB",
            0.10,
            "median over the timed iterations of the VmHWM each reached (the mark restarts before every iteration)",
        ),
    ]
}

/// Per-layer metrics, from the traced run. Names are prefixed with the
/// module they measure.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = vec![
        def("core.spec.build_s", "s", Lower, "ScenarioSpec::build time per iteration (0 on registry workloads, where Experiment::run hides it)"),
        def("core.spec.build_share", "ratio", Lower, "build_s / iteration"),
        def("core.spec.build_us_per_node", "us", Lower, "build_s / nodes built"),
        def("core.spec.nodes", "count", Lower, "nodes built per iteration (exact)"),
        def("core.spec.links", "count", Lower, "links built per iteration (exact)"),
        def("core.spec.build_allocs_per_node", "count", Lower, "allocations inside build spans / nodes"),
        def("core.world.schedule_s", "s", Lower, "World::schedule_all_flows time per iteration (0 on registry workloads and world_build)"),
        def("core.world.collect_s", "s", Lower, "reading records and counters back per iteration (0 on registry workloads)"),
        def("core.world.drop_s", "s", Lower, "dropping the worlds per iteration (0 on registry workloads)"),
        def("core.world.drop_share", "ratio", Lower, "drop_s / iteration"),
        def("netsim.sim.run_s", "s", Lower, "Sim::run_until time per iteration (Experiment::run on registry workloads, hidden builds included; 0 on world_build)"),
        def("netsim.sim.run_share", "ratio", Lower, "run_s / iteration"),
        def("netsim.sim.events", "count", Lower, "events processed per iteration (exact)"),
        def("netsim.sim.ns_per_event", "ns", Lower, "run_s / events"),
        def("netsim.sim.allocs_per_event", "count", Lower, "allocations inside run spans / events (harness thread only: read it on registry, not registry_jobs)"),
        def("netsim.sim.alloc_bytes_per_event", "B", Lower, "bytes requested inside run spans / events"),
        def("netsim.sim.queue_drops", "count", Lower, "link queue drops per iteration (exact; 0 on registry workloads)"),
        def("netsim.sim.down_drops", "count", Lower, "down-link and down-node drops per iteration (exact; 0 on registry workloads)"),
        def("netsim.sim.pingpong_ns_per_event", "ns", Lower, "engine floor: two echo nodes on Sim<Packet>, one packet in flight"),
        def("netsim.sim.star64_ns_per_event", "ns", Lower, "engine floor: 63 echo leaves around a hub, 63 packets in flight"),
        def("handlers.share_est", "ratio", Lower, "1 - star64 floor / netsim.sim.ns_per_event: the part of an event that is not the bare engine (0 on world_build)"),
        def("netsim.calq.hold_ns_per_op.d2", "ns", Lower, "CalendarQueue pop+push hold model at depth 2"),
        def("netsim.calq.hold_ns_per_op.d64", "ns", Lower, "the same at depth 64"),
        def("netsim.calq.hold_ns_per_op.d4096", "ns", Lower, "the same at depth 4096"),
        def("lispdp.xtr.miss_share", "ratio", Lower, "counter xtr.miss_events / packets sent (exact; 0 on registry workloads and world_build)"),
        def("lispdp.xtr.delivered_share", "ratio", Higher, "packets delivered / sent (exact; 0 on registry workloads and world_build)"),
        def("lispdp.mapcache.hit_ns", "ns", Lower, "MapCache::lookup hit, bounded LRU 32"),
        def("lispdp.mapcache.miss_ns", "ns", Lower, "MapCache::lookup miss, bounded LRU 32"),
        def("lispdp.mapcache.insert_evict_ns", "ns", Lower, "MapCache::insert into a full LRU 32, cycling 512 prefixes"),
        def("inet.lpm.lookup_ns.n64", "ns", Lower, "LpmTrie::lookup_value over 64 prefixes"),
        def("inet.lpm.lookup_ns.n4096", "ns", Lower, "LpmTrie::lookup_value over 4096 prefixes"),
        def("lispwire.packet.encode_ns", "ns", Lower, "Packet::encode of a LISP-encapsulated 256 B UDP packet"),
        def("lispwire.packet.decode_ns", "ns", Lower, "Packet::decode of the same bytes"),
        def("netsim.trace.enabled_ratio", "ratio", Lower, "Fig. 1 world run time with sim.trace enabled / disabled"),
        def("core.report.render_s", "s", Lower, "to_json + tables().render() of all reports in one registry pass"),
        def("core.report.render_share", "ratio", Lower, "render_s / registry pass"),
        def("core.report.bytes", "B", Lower, "bytes rendered in one registry pass (exact)"),
        def("netsim.par.jobs1_pass_s", "s", Lower, "registry pass at jobs=1, median of five: the base of the speed-up"),
        def("netsim.par.speedup", "ratio", Higher, "registry pass time at jobs=1 / at jobs=2, median of five alternated pairs"),
        def("netsim.par.speedup_spread", "ratio", Lower, "(largest - smallest) / median of those five ratios"),
        def("netsim.par.efficiency", "ratio", Higher, "speedup / 2"),
        def("harness.iter_wall_s_p50", "s", Lower, "median raw iteration wall-clock"),
        def("harness.events_per_s", "1/s", Higher, "events per iteration / iter_wall_s_p50"),
        def("harness.calib_s_p50", "s", Lower, "median calibration wall-clock: the host's speed this run"),
        def("harness.calib_cv", "ratio", Lower, "coefficient of variation of the calibration times"),
        def("harness.runq_wait_share", "ratio", Lower, "main-thread run-queue wait / (on-cpu + wait) over the timed loop"),
        def("harness.trace_overhead_ratio", "ratio", Lower, "median over alternated pairs of traced iteration cu / untraced iteration cu"),
        def("harness.unattributed_share", "ratio", Lower, "share of traced iteration time no leaf span covers"),
    ];
    for cp in CpKind::all() {
        let label = cp.label();
        m.push(def(&format!("plane.{label}.ns_per_event"), "ns", Lower, "run time / events of the differential world (64 sites, LRU 16, 1000 Zipf flows) on this plane"));
        m.push(def(
            &format!("plane.{label}.events"),
            "count",
            Lower,
            "events of that world (exact)",
        ));
    }
    for exp in experiments::registry() {
        let name = exp.name();
        m.push(def(
            &format!("core.experiments.{name}_s"),
            "s",
            Lower,
            "Experiment::run wall-clock at jobs=1",
        ));
        m.push(def(
            &format!("core.experiments.{name}_ns_per_event"),
            "ns",
            Lower,
            "the same / its process_events() delta",
        ));
    }
    m
}
