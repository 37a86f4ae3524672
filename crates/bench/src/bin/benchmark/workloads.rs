//! The five workloads: input generation from the seed, one iteration of
//! each, and the per-operation outcome the correctness checks compare.
//!
//! Product code receives only the generated specs and the seed; all
//! randomness the harness itself needs comes from [`SplitMix`].

use crate::span::Tracer;
use lispdp::{CacheSpec, EvictionPolicy};
use lispwire::dnswire::Name;
use netsim::Ns;
use pcelisp::experiments::{self, Experiment};
use pcelisp::hosts::{FlowMode, FlowSpec};
use pcelisp::scenario::CpKind;
use pcelisp::spec::{ScenarioSpec, Workload, World};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole experiment registry at `jobs` workers.
    Registry {
        jobs: usize,
    },
    DataplaneSteady,
    ResolutionStorm,
    WorldBuild,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        Some(match name {
            "registry" => Kind::Registry { jobs: 1 },
            "registry_jobs" => Kind::Registry { jobs: 2 },
            "dataplane_steady" => Kind::DataplaneSteady,
            "resolution_storm" => Kind::ResolutionStorm,
            "world_build" => Kind::WorldBuild,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Registry { jobs: 1 } => "registry",
            Kind::Registry { .. } => "registry_jobs",
            Kind::DataplaneSteady => "dataplane_steady",
            Kind::ResolutionStorm => "resolution_storm",
            Kind::WorldBuild => "world_build",
        }
    }

    /// The workload whose results this one must reproduce: a pooled
    /// registry pass answers to the serial one, the rest to themselves.
    pub fn serial(self) -> Kind {
        match self {
            Kind::Registry { .. } => Kind::Registry { jobs: 1 },
            other => other,
        }
    }

    /// Threads one iteration uses.
    pub fn jobs(self) -> usize {
        match self {
            Kind::Registry { jobs } => jobs,
            _ => 1,
        }
    }
}

/// Benchmark-owned generator for harness-side choices (flow order).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Benchmark-owned fnv64, so a change to the product's trace digest
/// cannot move the reference digests.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

enum Horizon {
    /// Build and drop; run no events.
    BuildOnly,
    Until(Ns),
    AfterLastFlow(Ns),
}

enum Cell {
    Experiment {
        exp: Box<dyn Experiment>,
        jobs: usize,
    },
    World {
        label: String,
        spec: Box<ScenarioSpec>,
        horizon: Horizon,
    },
}

/// Everything one iteration needs, generated once per set-up.
pub struct Inputs {
    pub seed: u64,
    cells: Vec<Cell>,
}

impl Inputs {
    /// The operations of one iteration, in order.
    #[cfg(test)]
    pub fn labels(&self) -> Vec<&str> {
        self.cells
            .iter()
            .map(|cell| match cell {
                Cell::Experiment { exp, .. } => exp.name(),
                Cell::World { label, .. } => label,
            })
            .collect()
    }
}

/// What one operation (one experiment or one world) produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub label: String,
    pub digest: u64,
    pub events: u64,
    pub nodes: u64,
    pub links: u64,
    pub sent: u64,
    pub delivered: u64,
    pub miss_events: u64,
    pub queue_drops: u64,
    pub down_drops: u64,
    pub report_bytes: u64,
    /// False for an incomplete report or a panic.
    pub complete: bool,
}

impl Outcome {
    fn empty(label: &str) -> Self {
        Outcome {
            label: label.to_string(),
            digest: 0,
            events: 0,
            nodes: 0,
            links: 0,
            sent: 0,
            delivered: 0,
            miss_events: 0,
            queue_drops: 0,
            down_drops: 0,
            report_bytes: 0,
            complete: false,
        }
    }

    /// Self-contained validity: complete, and nothing delivered that was
    /// never sent.
    pub fn is_sane(&self) -> bool {
        self.complete && self.delivered <= self.sent
    }
}

/// A UDP flow to every destination host, started 1 ms apart in a
/// seed-shuffled order: after each flow's first packets the world only
/// forwards on the warm path. A packet every 25 ms keeps the misses
/// under 0.1 %: under lisp-queue a mapping takes 144 ms to arrive, and
/// every packet a flow sends before then is a miss.
fn steady_spec(cp: CpKind, sites: usize, hosts: usize, packets: u32, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::multi_site(cp, sites, hosts);
    let mut names: Vec<String> = spec.topology.sites[1..]
        .iter()
        .flat_map(|site| (0..hosts).map(|h| spec.topology.host_name(site, h)))
        .collect();
    let mut rng = SplitMix(seed);
    for i in (1..names.len()).rev() {
        names.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let flows = names
        .iter()
        .enumerate()
        .map(|(i, name)| FlowSpec {
            start: Ns::from_ms(i as u64),
            qname: Name::parse_str(name).expect("generated host name is valid"),
            mode: FlowMode::Udp {
                packets,
                interval: Ns::from_ms(25),
                size: 256,
            },
        })
        .collect();
    spec.set_flows(flows);
    spec
}

/// Poisson/Zipf arrivals over a working set several times the bounded
/// LRU map-cache, so about half of all packets take the miss path.
fn storm_spec(cp: CpKind, sites: usize, flows: usize, cache: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::multi_site(cp, sites, 2);
    spec.workload = Workload::PoissonZipf {
        flows,
        rate_per_sec: 400.0,
        zipf_s: 1.0,
        mode: FlowMode::Udp {
            packets: 3,
            interval: Ns::from_ms(2),
            size: 300,
        },
    };
    spec.cache = CacheSpec::bounded(cache, EvictionPolicy::Lru);
    spec
}

/// The differential plane worlds every traced run also runs: one small
/// storm topology and workload, the plane varied.
pub fn plane_probe(seed: u64, quick: bool) -> Inputs {
    let (sites, flows, cache) = if quick { (8, 40, 2) } else { (64, 1000, 16) };
    let cells = CpKind::all()
        .into_iter()
        .map(|cp| Cell::World {
            label: cp.label().into_owned(),
            spec: Box::new(storm_spec(cp, sites, flows, cache)),
            horizon: Horizon::AfterLastFlow(Ns::from_secs(30)),
        })
        .collect();
    Inputs { seed, cells }
}

/// The experiments the unit-test smoke runs: the two cheapest.
pub const QUICK_EXPERIMENTS: [&str; 2] = ["e1", "e7"];

/// Generate a workload's inputs. `quick` shrinks every size for the
/// unit-test smoke; measurements always use `quick = false`.
pub fn generate(kind: Kind, seed: u64, quick: bool) -> Inputs {
    let world = |label: String, spec: ScenarioSpec, horizon: Horizon| Cell::World {
        label,
        spec: Box::new(spec),
        horizon,
    };
    let cells = match kind {
        Kind::Registry { jobs } => experiments::registry()
            .into_iter()
            .filter(|exp| !quick || QUICK_EXPERIMENTS.contains(&exp.name()))
            .map(|exp| Cell::Experiment { exp, jobs })
            .collect(),
        Kind::DataplaneSteady => {
            let (sites, hosts, packets) = if quick { (2, 2, 20) } else { (8, 4, 2000) };
            [CpKind::NoLisp, CpKind::LispQueue, CpKind::Nerd, CpKind::Pce]
                .into_iter()
                .map(|cp| {
                    world(
                        cp.label().into_owned(),
                        steady_spec(cp, sites, hosts, packets, seed),
                        Horizon::Until(Ns::from_secs(60)),
                    )
                })
                .collect()
        }
        Kind::ResolutionStorm => {
            let (sites, flows, cache) = if quick { (8, 40, 2) } else { (256, 4000, 32) };
            CpKind::all()
                .into_iter()
                .map(|cp| {
                    world(
                        cp.label().into_owned(),
                        storm_spec(cp, sites, flows, cache),
                        Horizon::AfterLastFlow(Ns::from_secs(30)),
                    )
                })
                .collect()
        }
        Kind::WorldBuild => {
            let sizes: &[usize] = if quick { &[4, 16] } else { &[64, 512, 2048] };
            let mut cells = Vec::new();
            for &n in sizes {
                for cp in CpKind::all() {
                    cells.push(world(
                        format!("{}/n={n}", cp.label()),
                        ScenarioSpec::multi_site(cp, n, 2),
                        Horizon::BuildOnly,
                    ));
                }
            }
            cells
        }
    };
    Inputs { seed, cells }
}

fn collect(label: &str, world: &World) -> Outcome {
    let records = world.records();
    let sim = &world.sim;
    let mut out = Outcome::empty(label);
    out.events = sim.events_processed();
    out.nodes = sim.node_count() as u64;
    out.links = sim.link_count() as u64;
    out.sent = records.iter().map(|r| u64::from(r.data_sent)).sum();
    out.delivered = world.server_udp_received();
    out.miss_events = sim.counters().get("xtr.miss_events");
    out.queue_drops = sim.total_queue_drops();
    out.down_drops = sim.total_down_drops() + sim.node_down_drops();
    out.complete = true;

    let mut h = Fnv::new();
    h.word(out.events);
    for r in &records {
        for t in [r.t_query, r.t_answer, r.t_established] {
            h.word(t.map_or(u64::MAX, |t| t.0));
        }
        h.word(r.dest.map_or(u64::MAX, |d| u64::from(d.to_u32())));
        h.word(u64::from(r.data_sent));
        h.word(u64::from(r.data_echoed));
    }
    h.word(out.delivered);
    h.word(world.total_miss_drops());
    h.word(out.nodes);
    h.word(out.links);
    out.digest = h.0;
    out
}

fn run_cell(cell: &Cell, seed: u64, tr: &mut Tracer) -> Outcome {
    match cell {
        Cell::Experiment { exp, jobs } => {
            tr.open(exp.name());
            let before = netsim::sim::process_events();
            tr.open("run");
            let report = exp.run(seed, *jobs);
            tr.close();
            let mut out = Outcome::empty(exp.name());
            out.events = netsim::sim::process_events() - before;
            tr.open("render");
            let json = report.to_json();
            let text: String = report.tables().iter().map(|t| t.render()).collect();
            tr.close();
            let mut h = Fnv::new();
            h.bytes(json.as_bytes());
            out.digest = h.0;
            out.report_bytes = (json.len() + text.len()) as u64;
            out.complete = report.is_complete();
            tr.close();
            out
        }
        Cell::World {
            label,
            spec,
            horizon,
        } => {
            tr.open(label);
            tr.open("build");
            let mut world = spec.build(seed);
            tr.close();
            let until = match horizon {
                Horizon::BuildOnly => None,
                Horizon::Until(t) => Some(*t),
                Horizon::AfterLastFlow(d) => Some(world.last_flow_start() + *d),
            };
            if let Some(until) = until {
                tr.open("schedule");
                world.schedule_all_flows();
                tr.close();
                tr.open("run");
                world.sim.run_until(until);
                tr.close();
            }
            tr.open("collect");
            let out = collect(label, &world);
            tr.close();
            tr.open("drop");
            drop(world);
            tr.close();
            tr.close();
            out
        }
    }
}

/// Run one iteration: every cell once, in order, each guarded against
/// panics. World build and teardown are inside, because users pay them
/// on every run.
pub fn run_iteration(inputs: &Inputs, tr: &mut Tracer) -> Vec<Outcome> {
    tr.open("iteration");
    let outcomes = inputs
        .cells
        .iter()
        .map(|cell| {
            let depth = tr.depth();
            catch_unwind(AssertUnwindSafe(|| run_cell(cell, inputs.seed, tr))).unwrap_or_else(
                |_| {
                    tr.close_to(depth);
                    Outcome::empty(match cell {
                        Cell::Experiment { exp, .. } => exp.name(),
                        Cell::World { label, .. } => label,
                    })
                },
            )
        })
        .collect();
    tr.close();
    outcomes
}
