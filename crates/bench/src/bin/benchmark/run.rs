//! One benchmark run: set-up, the timed closed loop (one client: the
//! next iteration starts when the previous one returns), the traced
//! variant, and the result record.

use crate::calib::Calib;
use crate::catalog::{self, MetricDef};
use crate::cells::{self, Metrics};
use crate::json::{self, Json};
use crate::span::{self, Span, Tracer};
use crate::stats::{cv, median, p75};
use crate::workloads::{self, Inputs, Kind, Outcome};
use crate::{alloc, host};
use std::fmt::Write as _;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<String>,
    /// Unit-test smoke only: reduced sizes, one set-up, one iteration,
    /// no pinned reference. Never set from the command line.
    pub quick: bool,
}

/// Digests and exact counts at the pinned seeds, written by
/// `benchmark reference --write`.
const REFERENCE: &str = include_str!("reference.json");
pub const PINNED_SEEDS: [u64; 2] = [1, 2];

/// An untraced run sets up again each time this much measuring has
/// passed; `setup_s` is the median of all its set-ups. Spread through the
/// run they see the host's faster and slower minutes alike: five in a row
/// at the start spread 6-20 % run to run.
const SETUP_EVERY_S: f64 = 2.5;
/// Fewest timed iterations of an untraced run, however short `--seconds`
/// is: the n at which p75 leaves ten samples beyond it.
const MIN_ITERS: usize = 40;
/// Fewest traced iterations (each paired with an untraced one).
const MIN_TRACED_ITERS: usize = 5;

/// What `reference.json` pins of one operation.
#[derive(Debug, PartialEq, Eq)]
pub struct RefOp {
    label: String,
    digest: u64,
    events: u64,
    nodes: u64,
}

impl RefOp {
    pub fn of(o: &Outcome) -> Self {
        RefOp {
            label: o.label.clone(),
            digest: o.digest,
            events: o.events,
            nodes: o.nodes,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"op\": {}, \"digest\": \"{:016x}\", \"events\": {}, \"nodes\": {}}}",
            json::quote(&self.label),
            self.digest,
            self.events,
            self.nodes
        )
    }

    fn from_json(op: &Json) -> Option<Self> {
        let num = |k| op.get(k).and_then(Json::as_f64).map(|v| v as u64);
        Some(RefOp {
            label: op.get("op")?.as_str()?.to_string(),
            digest: u64::from_str_radix(op.get("digest")?.as_str()?, 16).ok()?,
            events: num("events")?,
            nodes: num("nodes")?,
        })
    }
}

/// Every operation of a workload at a pinned seed; `None` at other seeds.
/// `registry_jobs` shares the `registry` entry it must reproduce.
fn pinned(kind: Kind, seed: u64) -> Result<Option<Vec<RefOp>>, String> {
    let reference = json::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    let Some(ops) = reference
        .get(kind.serial().name())
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Json::as_arr)
    else {
        return Ok(None);
    };
    ops.iter()
        .map(RefOp::from_json)
        .collect::<Option<Vec<_>>>()
        .map(Some)
        .ok_or_else(|| "reference.json: malformed operation".to_string())
}

pub struct Setup {
    pub inputs: Inputs,
    /// The warm-up iteration's outcomes, which every timed iteration
    /// must reproduce.
    pub expected: Vec<Outcome>,
    /// Warm-up operations that are incomplete or differ from the
    /// reference at a pinned seed.
    pub warmup_failed: u64,
}

/// Generate the inputs from the seed, load the reference, and run one
/// untimed warm-up iteration.
pub fn setup(kind: Kind, seed: u64, quick: bool) -> Result<Setup, String> {
    let workload = kind.name();
    let inputs = workloads::generate(kind, seed, quick);
    let reference = if quick { None } else { pinned(kind, seed)? };
    let expected = if kind.serial() == kind {
        workloads::run_iteration(&inputs, &mut Tracer::off())
    } else {
        let serial = workloads::generate(kind.serial(), seed, quick);
        workloads::run_iteration(&serial, &mut Tracer::off())
    };
    let mut warmup_failed = expected.iter().filter(|o| !o.is_sane()).count() as u64;
    if let Some(reference) = reference {
        if reference.len() != expected.len() {
            return Err(format!(
                "reference.json lists {} operations for {workload} seed {seed}, the run has {}",
                reference.len(),
                expected.len()
            ));
        }
        for (o, pinned) in expected.iter().zip(&reference) {
            if o.is_sane() && RefOp::of(o) != *pinned {
                eprintln!(
                    "MISMATCH {workload} seed {seed}: got {}, reference.json has {}",
                    RefOp::of(o).to_json(),
                    pinned.to_json()
                );
                warmup_failed += 1;
            }
        }
    }
    Ok(Setup {
        inputs,
        expected,
        warmup_failed,
    })
}

/// Operations of one iteration that failed: panicked or incomplete,
/// delivered more than sent, or differ in any digest or count from the
/// warm-up.
pub fn failed_ops(outcomes: &[Outcome], expected: &[Outcome]) -> u64 {
    let differing = outcomes
        .iter()
        .zip(expected)
        .filter(|(o, e)| !o.is_sane() || o != e)
        .count();
    (differing + outcomes.len().abs_diff(expected.len())) as u64
}

/// One timed iteration, bracketed by two runs of the calibration kernel
/// (the one after it is the next iteration's one before).
#[derive(Debug, Clone, Copy)]
struct Sample {
    calib_before_s: f64,
    calib_after_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
}

impl Sample {
    /// Iteration cost in calibration units. The mean of the bracketing
    /// calibrations tracked host drift better on the sizing runs than the
    /// preceding one alone (spread 0.7-2.8 % against 1.1-3.2 %).
    fn cu(&self) -> f64 {
        self.wall_s / ((self.calib_before_s + self.calib_after_s) / 2.0)
    }
}

/// The timed loop's state: the calibration kernel and its latest reading.
struct Loop {
    calib: Calib,
    last_calib_s: f64,
}

impl Loop {
    fn new(quick: bool) -> Self {
        let mut calib = Calib::new(quick);
        calib.run();
        let last_calib_s = calib.run();
        Self {
            calib,
            last_calib_s,
        }
    }

    fn timed_iteration(
        &mut self,
        setup: &Setup,
        tr: &mut Tracer,
        failed: &mut u64,
    ) -> (Sample, Vec<Outcome>) {
        let calib_before_s = self.last_calib_s;
        host::reset_peak_rss();
        let start = Instant::now();
        let outcomes = workloads::run_iteration(&setup.inputs, tr);
        let wall_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = host::peak_rss_mb();
        self.last_calib_s = self.calib.run();
        *failed += failed_ops(&outcomes, &setup.expected);
        let sample = Sample {
            calib_before_s,
            calib_after_s: self.last_calib_s,
            wall_s,
            peak_rss_mb,
        };
        (sample, outcomes)
    }

    /// Take a fresh reading after something else ran, so the next
    /// iteration is not bracketed by a stale one.
    fn recalibrate(&mut self) {
        self.last_calib_s = self.calib.run();
    }
}

fn cus(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::cu).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The workload-specific part of the ledger, from the span tree of its
/// traced iterations: timings as medians over the iterations, counts
/// from one iteration. A phase the workload does not have reads 0 (the
/// registry workloads hide every world inside `Experiment::run`;
/// `world_build` schedules and runs nothing).
fn layer_split(spans: &[Span], outcomes: &[Outcome], m: &mut Metrics) {
    let sums = span::summarise(spans);
    let median_of =
        |f: &dyn Fn(&span::IterSummary) -> f64| median(&sums.iter().map(f).collect::<Vec<_>>());
    let phase_s = |name: &str| median_of(&|s| s.phase(name).ns as f64 / 1e9);
    let total = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let iter_s = median_of(&|s| s.wall_ns as f64 / 1e9);
    let nodes = total(|o| o.nodes);
    let events = total(|o| o.events);
    let sent = total(|o| o.sent);

    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("core.spec.build_s", phase_s("build"));
    put("core.spec.build_share", ratio(phase_s("build"), iter_s));
    put(
        "core.spec.build_us_per_node",
        ratio(phase_s("build"), nodes) * 1e6,
    );
    put("core.spec.nodes", nodes);
    put("core.spec.links", total(|o| o.links));
    put(
        "core.spec.build_allocs_per_node",
        ratio(median_of(&|s| s.phase("build").allocs as f64), nodes),
    );
    put("core.world.schedule_s", phase_s("schedule"));
    put("core.world.collect_s", phase_s("collect"));
    put("core.world.drop_s", phase_s("drop"));
    put("core.world.drop_share", ratio(phase_s("drop"), iter_s));
    put("netsim.sim.run_s", phase_s("run"));
    put("netsim.sim.run_share", ratio(phase_s("run"), iter_s));
    put("netsim.sim.events", events);
    put(
        "netsim.sim.ns_per_event",
        ratio(phase_s("run"), events) * 1e9,
    );
    put(
        "netsim.sim.allocs_per_event",
        ratio(median_of(&|s| s.phase("run").allocs as f64), events),
    );
    put(
        "netsim.sim.alloc_bytes_per_event",
        ratio(median_of(&|s| s.phase("run").bytes as f64), events),
    );
    put("netsim.sim.queue_drops", total(|o| o.queue_drops));
    put("netsim.sim.down_drops", total(|o| o.down_drops));
    put(
        "lispdp.xtr.miss_share",
        ratio(total(|o| o.miss_events), sent),
    );
    put(
        "lispdp.xtr.delivered_share",
        ratio(total(|o| o.delivered), sent),
    );
}

/// Most a tracing overhead may be (`harness.trace_overhead_ratio`).
const MAX_TRACE_OVERHEAD: f64 = 1.05;

/// The checks a traced run must pass: the span tree accounts for the
/// iteration, tracing costs next to nothing, and the workload stresses
/// the layers it was chosen for. `overheads` holds traced / untraced
/// iteration cost, pair by pair.
fn discrimination(
    kind: Kind,
    outcomes: &[Outcome],
    overheads: &[f64],
    m: &Metrics,
) -> Vec<(String, bool)> {
    let get = |name: &str| m.get(name).copied().unwrap_or(f64::NAN);
    let mut checks = Vec::new();
    let mut check = |what: String, pass: bool| checks.push((what, pass));
    let unattributed = get("harness.unattributed_share");
    check(
        format!("harness.unattributed_share {unattributed:.6} <= 0.05"),
        unattributed <= 0.05,
    );
    // A sign test, not the bare median: one pair's ratio moves 5 % with
    // the host, so the median of twenty, truly 1.00-1.03, reads above
    // the limit in one run in thirty. An overhead at the limit puts half
    // the pairs above it, give or take sqrt(n) / 2; the check allows
    // twice that.
    let n = overheads.len() as f64;
    let above = overheads
        .iter()
        .filter(|&&r| r > MAX_TRACE_OVERHEAD)
        .count();
    let allowed = (n / 2.0 + n.sqrt()).floor();
    check(
        format!(
            "harness.trace_overhead_ratio {:.4}: {above} of {n} pairs above {MAX_TRACE_OVERHEAD}, at most {allowed} may be",
            get("harness.trace_overhead_ratio")
        ),
        above as f64 <= allowed,
    );
    match kind {
        Kind::DataplaneSteady => {
            let (build, run, miss) = (
                get("core.spec.build_share"),
                get("netsim.sim.run_share"),
                get("lispdp.xtr.miss_share"),
            );
            check(
                format!("core.spec.build_share {build:.5} < 0.02"),
                build < 0.02,
            );
            check(format!("netsim.sim.run_share {run:.4} > 0.90"), run > 0.90);
            check(
                format!("lispdp.xtr.miss_share {miss:.6} < 0.001"),
                miss < 0.001,
            );
        }
        Kind::WorldBuild => {
            // Sizing expected build alone above 0.80. Measured, it is two
            // thirds and dropping the worlds most of the rest, so the
            // check is on the two together: what running no event leaves.
            let (build, drop) = (get("core.spec.build_share"), get("core.world.drop_share"));
            check(
                format!(
                    "core.spec.build_share {build:.4} + core.world.drop_share {drop:.4} > 0.90"
                ),
                build + drop > 0.90,
            );
        }
        Kind::ResolutionStorm => {
            // The pull planes resolve on demand; NERD and the PCE push.
            for o in outcomes
                .iter()
                .filter(|o| !matches!(o.label.as_str(), "no-lisp" | "nerd" | "pce"))
            {
                let share = ratio(o.miss_events as f64, o.sent as f64);
                check(
                    format!("miss share of pull plane {} {share:.4} > 0.30", o.label),
                    share > 0.30,
                );
            }
        }
        // Nothing to assert: the sweep pool's speed-up is the host's to
        // give. `run_traced` prints it with its base.
        Kind::Registry { .. } => {}
    }
    checks
}

struct Measured {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
    samples: Vec<Sample>,
    setup_samples: Vec<f64>,
    spans: Vec<Span>,
}

fn run_untraced(args: &RunArgs, kind: Kind, started: Instant) -> Result<Measured, String> {
    let min_iters = if args.quick { 1 } else { MIN_ITERS };
    // The first set-up is charged from process start.
    let state = setup(kind, args.seed, args.quick)?;
    let mut setup_samples = vec![started.elapsed().as_secs_f64()];
    let mut failed = state.warmup_failed;
    let ops = state.expected.len() as u64;

    let mut timed = Loop::new(args.quick);
    let mut samples = Vec::new();
    // Time spent measuring: iterations and their calibration runs, not
    // the set-ups in between.
    let mut measured_s = 0.0;
    let mut next_setup_s = SETUP_EVERY_S;
    while samples.len() < min_iters || measured_s < args.seconds {
        let start = Instant::now();
        let (sample, _) = timed.timed_iteration(&state, &mut Tracer::off(), &mut failed);
        measured_s += start.elapsed().as_secs_f64();
        samples.push(sample);
        if !args.quick && measured_s >= next_setup_s && measured_s < args.seconds {
            next_setup_s += SETUP_EVERY_S;
            let start = Instant::now();
            let again = setup(kind, args.seed, args.quick)?;
            setup_samples.push(start.elapsed().as_secs_f64());
            failed += again.warmup_failed + failed_ops(&again.expected, &state.expected);
            timed.recalibrate();
        }
    }

    let cu = cus(&samples);
    let mut metrics = Metrics::new();
    metrics.insert("iter_cu_p50".into(), median(&cu));
    metrics.insert("iter_cu_p75".into(), p75(&cu));
    metrics.insert("setup_s".into(), median(&setup_samples));
    metrics.insert(
        "peak_rss_mb".into(),
        median(&samples.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()),
    );
    Ok(Measured {
        metrics,
        attempted: ops * (setup_samples.len() + samples.len()) as u64,
        failed,
        correct: failed == 0,
        samples,
        setup_samples,
        spans: Vec::new(),
    })
}

fn run_traced(args: &RunArgs, kind: Kind, started: Instant) -> Result<Measured, String> {
    let min_pairs = if args.quick { 1 } else { MIN_TRACED_ITERS };
    let state = setup(kind, args.seed, args.quick)?;
    let setup_samples = vec![started.elapsed().as_secs_f64()];
    let mut failed = state.warmup_failed;
    let ops = state.expected.len() as u64;

    // Traced and untraced iterations alternate, so each pair sees the
    // same host and the ratio within it is the tracing overhead.
    let mut timed = Loop::new(args.quick);
    let mut tr = Tracer::new(true);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let (cpu0, wait0) = host::schedstat();
    let loop_start = Instant::now();
    let mut outcomes = Vec::new();
    while traced.len() < min_pairs || loop_start.elapsed().as_secs_f64() < args.seconds {
        tr.set_iter(traced.len() as u32);
        alloc::set_counting(true);
        let (sample, out) = timed.timed_iteration(&state, &mut tr, &mut failed);
        alloc::set_counting(false);
        traced.push(sample);
        outcomes = out;
        let (sample, _) = timed.timed_iteration(&state, &mut Tracer::off(), &mut failed);
        plain.push(sample);
    }
    let (cpu1, wait1) = host::schedstat();

    let mut m = Metrics::new();
    cells::run_all(args.seed, args.quick, &mut timed.calib, &mut m);
    layer_split(&tr.spans, &outcomes, &mut m);

    let calibs: Vec<f64> = traced
        .iter()
        .chain(&plain)
        .map(|s| s.calib_before_s)
        .collect();
    let wall = median(&plain.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let events = m["netsim.sim.events"];
    let per_event = m["netsim.sim.ns_per_event"];
    let share_est = if per_event > 0.0 {
        1.0 - m["netsim.sim.star64_ns_per_event"] / per_event
    } else {
        0.0
    };
    let overheads: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| t.cu() / p.cu())
        .collect();
    m.insert("handlers.share_est".into(), share_est);
    m.insert("harness.iter_wall_s_p50".into(), wall);
    m.insert("harness.events_per_s".into(), ratio(events, wall));
    m.insert("harness.calib_s_p50".into(), median(&calibs));
    m.insert("harness.calib_cv".into(), cv(&calibs));
    m.insert(
        "harness.runq_wait_share".into(),
        ratio(
            (wait1 - wait0) as f64,
            ((cpu1 - cpu0) + (wait1 - wait0)) as f64,
        ),
    );
    m.insert("harness.trace_overhead_ratio".into(), median(&overheads));
    m.insert(
        "harness.unattributed_share".into(),
        span::unattributed_share(&tr.spans),
    );

    let mut correct = failed == 0;
    for (what, pass) in discrimination(kind, &outcomes, &overheads, &m) {
        eprintln!("check {}: {what}", if pass { "PASS" } else { "FAIL" });
        correct &= pass;
    }
    if let Kind::Registry { jobs } = kind {
        eprintln!(
            "netsim.par.speedup {:.3} = jobs=1 pass ({:.4} s) / jobs=2 pass, median of {} alternated pairs, (max - min) / median {:.3}; this workload runs jobs={jobs}",
            m["netsim.par.speedup"],
            m["netsim.par.jobs1_pass_s"],
            cells::SPEEDUP_PAIRS,
            m["netsim.par.speedup_spread"],
        );
    }
    Ok(Measured {
        metrics: m,
        attempted: ops * (1 + traced.len() + plain.len()) as u64,
        failed,
        correct,
        samples: plain,
        setup_samples,
        spans: tr.spans,
    })
}

fn metrics_json(defs: &[MetricDef], metrics: &Metrics) -> Result<String, String> {
    let mut parts = Vec::new();
    for d in defs {
        let v = metrics
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number: {v}", d.name));
        }
        parts.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json::quote(&d.name),
            json::quote(d.unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// The full record `compare` reads: the result line plus the host, the
/// build, every sample and, for a traced run, every span.
fn record(args: &RunArgs, kind: Kind, r: &Measured, metrics: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", json::quote(&args.workload));
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"traced\": {},", args.trace);
    let _ = writeln!(out, "  \"jobs\": {},", kind.jobs());
    let _ = writeln!(out, "  \"iterations\": {},", r.samples.len());
    for (key, value) in host::describe() {
        let _ = writeln!(out, "  {}: {},", json::quote(key), json::quote(&value));
    }
    let _ = writeln!(out, "  \"correct\": {},", r.correct);
    let _ = writeln!(out, "  \"attempted\": {},", r.attempted);
    let _ = writeln!(out, "  \"failed\": {},", r.failed);
    let _ = writeln!(out, "  \"metrics\": {metrics},");
    let list = |v: Vec<String>| v.join(", ");
    let _ = writeln!(
        out,
        "  \"calib_s\": [{}],",
        list(
            r.samples
                .iter()
                .map(|s| s.calib_before_s.to_string())
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"iter_wall_s\": [{}],",
        list(r.samples.iter().map(|s| s.wall_s.to_string()).collect())
    );
    let _ = writeln!(
        out,
        "  \"iter_peak_rss_mb\": [{}],",
        list(
            r.samples
                .iter()
                .map(|s| s.peak_rss_mb.to_string())
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"setup_s\": [{}],",
        list(r.setup_samples.iter().map(f64::to_string).collect())
    );
    let spans: Vec<String> = r
        .spans
        .iter()
        .map(|s| {
            format!(
                "\n    {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"iter\": {}, \"allocs\": {}, \"bytes\": {}}}",
                json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.iter,
                s.allocs,
                s.bytes
            )
        })
        .collect();
    let _ = writeln!(out, "  \"spans\": [{}]", spans.join(","));
    out.push_str("}\n");
    out
}

/// Measure one workload: the metric definitions of the chosen mode and
/// their values.
fn measure(args: &RunArgs, started: Instant) -> Result<(Kind, Vec<MetricDef>, Measured), String> {
    let kind = Kind::from_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (see `benchmark list`)",
            args.workload
        )
    })?;
    // The smoke only has to run: it may share one core between two threads.
    if !args.quick && kind.jobs() > host::nproc() {
        return Err(format!(
            "{} uses {} threads and this host offers {}",
            args.workload,
            kind.jobs(),
            host::nproc()
        ));
    }
    if args.trace {
        Ok((kind, catalog::per_layer(), run_traced(args, kind, started)?))
    } else {
        Ok((
            kind,
            catalog::end_to_end(),
            run_untraced(args, kind, started)?,
        ))
    }
}

/// Run one workload and print the result line. `Ok(true)` means every
/// operation was correct.
pub fn run(args: &RunArgs, started: Instant) -> Result<bool, String> {
    let (kind, defs, r) = measure(args, started)?;
    eprintln!(
        "{} seed {}: {} timed iterations, jobs {}",
        args.workload,
        args.seed,
        r.samples.len(),
        kind.jobs(),
    );
    for d in &defs {
        if let Some(v) = r.metrics.get(&d.name) {
            eprintln!(
                "  {:<44} {v:>16.6} {:<6} ({} is better)",
                d.name,
                d.unit,
                d.better.as_str()
            );
        }
    }
    eprintln!(
        "  {:<44} {:>16.6} ratio  ({} of {} operations)",
        "failed_share",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );

    let metrics = metrics_json(&defs, &r.metrics)?;
    if let Some(path) = &args.out {
        std::fs::write(path, record(args, kind, &r, &metrics))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.correct, r.attempted, r.failed
    );
    Ok(r.correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;
    use std::sync::{Mutex, MutexGuard};

    /// An experiment's event count is a delta of the process-wide
    /// `process_events()`, so tests that run simulations take turns.
    static SIMS: Mutex<()> = Mutex::new(());

    fn sims() -> MutexGuard<'static, ()> {
        // A poisoned lock only means another test failed; the guarded
        // value is `()`, so there is nothing to find half-updated.
        SIMS.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn quick(workload: &str, seed: u64, trace: bool) -> RunArgs {
        RunArgs {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            out: None,
            quick: true,
        }
    }

    /// One reduced-size iteration of every workload, untraced and traced:
    /// every path runs, nothing fails, and exactly the catalogued names
    /// come out.
    #[test]
    fn quick_smoke_emits_every_catalogued_metric() {
        let _turn = sims();
        for w in &WORKLOADS {
            for trace in [false, true] {
                let (_, defs, r) = measure(&quick(w.name, 1, trace), Instant::now())
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name);
                assert!(r.attempted > 0);
                let emitted: Vec<&String> = r.metrics.keys().collect();
                // The smoke's registry pass holds two experiments only.
                let skipped = |name: &str| {
                    name.strip_prefix("core.experiments.").is_some_and(|rest| {
                        !workloads::QUICK_EXPERIMENTS
                            .iter()
                            .any(|e| rest.starts_with(&format!("{e}_")))
                    })
                };
                let mut expected: Vec<&String> = defs
                    .iter()
                    .map(|d| &d.name)
                    .filter(|name| !skipped(name))
                    .collect();
                expected.sort();
                assert_eq!(emitted, expected, "{} trace={trace}", w.name);
                assert!(r.metrics.values().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn unpinned_seed_passes_on_self_consistency_alone() {
        let _turn = sims();
        assert!(pinned(Kind::WorldBuild, 7)
            .expect("reference parses")
            .is_none());
        for w in &WORKLOADS {
            let kind = Kind::from_name(w.name).expect("catalogued");
            let state = setup(kind, 7, true).expect("set-up succeeds");
            assert_eq!(state.warmup_failed, 0, "{}", w.name);
            let again = workloads::run_iteration(&state.inputs, &mut Tracer::off());
            assert_eq!(failed_ops(&again, &state.expected), 0, "{}", w.name);
        }
    }

    #[test]
    fn a_changed_digest_or_count_is_a_failure() {
        let _turn = sims();
        let state = setup(Kind::WorldBuild, 7, true).expect("set-up succeeds");
        let mut drifted = state.expected.clone();
        drifted[0].events += 1;
        drifted[1].digest ^= 1;
        drifted[2].delivered = drifted[2].sent + 1;
        assert_eq!(failed_ops(&drifted, &state.expected), 3);
        assert_eq!(
            failed_ops(&drifted[1..], &state.expected),
            drifted.len() as u64
        );
    }

    /// `reference.json` lists, for both pinned seeds, exactly the
    /// operations the full-size inputs hold.
    #[test]
    fn reference_covers_the_pinned_seeds() {
        for w in &WORKLOADS {
            let kind = Kind::from_name(w.name).expect("catalogued");
            for seed in PINNED_SEEDS {
                let ops = pinned(kind, seed)
                    .expect("reference parses")
                    .unwrap_or_else(|| panic!("{} seed {seed} is not pinned", w.name));
                let labels: Vec<&str> = ops.iter().map(|op| op.label.as_str()).collect();
                assert_eq!(labels, workloads::generate(kind, seed, false).labels());
            }
        }
    }
}
