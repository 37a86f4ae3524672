//! **E3 — mapping resolution hidden inside the DNS time (claim C2).**
//!
//! The paper's goal 2: `T_DNS + T_map_resol ≈ T_DNS`. For each control
//! plane we measure `T_DNS` (query → answer at the host) and the
//! *effective* extra mapping latency `T_map_eff` — how long after the DNS
//! answer the first data packet can actually leave with a mapping in
//! place. For pull systems (with the Queue policy so nothing is lost)
//! that is the ITR queue delay of the first packet; for PCE/NERD the
//! mapping pre-exists and the extra is zero.
//!
//! The reported ratio is `(T_DNS + T_map_eff) / T_DNS` — the paper claims
//! ≈ 1.0 for its control plane.

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::experiments::sweep::Sweep;
use crate::hosts::FlowMode;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use crate::table::Table;
use lispdp::{MissPolicy, Xtr};
use netsim::Ns;

/// One measurement row.
#[derive(Debug, Clone)]
pub struct ResolutionRow {
    /// Control plane label.
    pub cp: String,
    /// Provider-link one-way delay (ms).
    pub owd_ms: u64,
    /// Measured `T_DNS` (ms).
    pub t_dns_ms: f64,
    /// Effective extra mapping latency after the answer (ms).
    pub t_map_eff_ms: f64,
    /// `(T_DNS + T_map_eff) / T_DNS`.
    pub ratio: f64,
}

/// Sweep result.
#[derive(Debug, Clone, Default)]
pub struct ResolutionResult {
    /// All rows.
    pub rows: Vec<ResolutionRow>,
}

impl ResolutionResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "resolution",
            "E3: (T_DNS + T_map_eff)/T_DNS per control plane",
            &["cp", "owd_ms", "t_dns_ms", "t_map_eff_ms", "ratio"],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::u64(r.owd_ms),
                Cell::f64(r.t_dns_ms, 1),
                Cell::f64(r.t_map_eff_ms, 1),
                Cell::f64(r.ratio, 3),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Control planes compared in E3.
pub fn e3_variants() -> Vec<CpKind> {
    vec![
        CpKind::LispDrop, // run with Queue policy override below
        CpKind::Alt { hops: 4 },
        CpKind::Cons { cdr_depth: 1 },
        CpKind::Nerd,
        CpKind::Pce,
    ]
}

/// Run one (cp, owd) cell.
pub fn run_resolution_cell(cp: CpKind, owd: Ns, seed: u64) -> ResolutionRow {
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_provider_owd(owd);
            s.set_flows(flow_script(
                &[Ns::ZERO],
                4,
                FlowMode::Udp {
                    packets: 4,
                    interval: Ns::from_ms(1),
                    size: 200,
                },
            ));
        })
        .build(seed);
    // Queue policy for pull systems so the first packet's waiting time is
    // exactly T_map.
    world.override_pull_miss_policy(MissPolicy::Queue { max_packets: 64 });
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(60));

    let rec = world.records()[0].clone();
    let t_dns = rec.dns_time().unwrap_or(Ns::ZERO);
    // First-packet queue delay across ITRs = T_map_eff for pull systems.
    let t_map_eff = world
        .all_xtrs()
        .iter()
        .flat_map(|&x| world.sim.node_ref::<Xtr>(x).queue_delays.clone())
        .max()
        .unwrap_or(Ns::ZERO);
    let t_dns_ms = t_dns.as_ms_f64();
    let t_map_eff_ms = t_map_eff.as_ms_f64();
    let ratio = if t_dns_ms > 0.0 {
        (t_dns_ms + t_map_eff_ms) / t_dns_ms
    } else {
        0.0
    };
    ResolutionRow {
        cp: cp.label().into_owned(),
        owd_ms: owd.as_ms(),
        t_dns_ms,
        t_map_eff_ms,
        ratio,
    }
}

/// Full sweep on up to `jobs` workers (`0` = auto).
pub fn run_resolution_jobs(seed: u64, jobs: usize) -> ResolutionResult {
    let mut cells = Vec::new();
    for owd in crate::experiments::OWD_SWEEP {
        for cp in e3_variants() {
            cells.push((cp, owd));
        }
    }
    let rows = Sweep::new("e3", cells).run(
        jobs,
        |&(cp, owd)| format!("{}/owd={}ms", cp.label(), owd.as_ms()),
        |&(cp, owd)| run_resolution_cell(cp, owd, seed),
    );
    ResolutionResult { rows }
}

/// Full sweep, serial.
pub fn run_resolution(seed: u64) -> ResolutionResult {
    run_resolution_jobs(seed, 1)
}

/// **Ablation A2** — PCE precompute vs. on-demand computation at step 6.
/// Returns `(t_dns_precomputed_ms, t_dns_on_demand_ms)`.
pub fn run_ablation_precompute(seed: u64) -> (f64, f64) {
    let run = |precompute: bool| -> f64 {
        let mut world = ScenarioSpec::fig1(CpKind::Pce)
            .with(|s| {
                s.pce_precompute = precompute;
                s.set_flows(flow_script(
                    &[Ns::ZERO],
                    4,
                    FlowMode::Udp {
                        packets: 1,
                        interval: Ns::from_ms(1),
                        size: 100,
                    },
                ));
            })
            .build(seed);
        world.schedule_all_flows();
        world.sim.run_until(Ns::from_secs(30));
        world.records()[0]
            .dns_time()
            .map(|t| t.as_ms_f64())
            .unwrap_or(f64::NAN)
    };
    (run(true), run(false))
}

/// The A2 ablation as a typed section.
pub fn ablation_precompute_section(seed: u64) -> Section {
    let (pre, demand) = run_ablation_precompute(seed);
    let mut s = Section::new(
        "ablation_precompute",
        "A2: PCE precompute vs on-demand mapping computation",
        &["variant", "t_dns_ms"],
    );
    s.row(vec![Cell::str("precomputed (paper)"), Cell::f64(pre, 1)]);
    s.row(vec![Cell::str("on-demand (ablated)"), Cell::f64(demand, 1)]);
    s
}

/// The registry entry for E3 (includes the A2 ablation section).
pub struct E3Resolution;

impl crate::experiments::Experiment for E3Resolution {
    fn name(&self) -> &'static str {
        "e3"
    }
    fn title(&self) -> &'static str {
        "Mapping resolution hidden inside the DNS time"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_resolution_jobs(seed, jobs).section())
            .with_section(ablation_precompute_section(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_ratio_is_one() {
        let row = run_resolution_cell(CpKind::Pce, Ns::from_ms(30), 1);
        assert!(row.t_map_eff_ms == 0.0, "{row:?}");
        assert!((row.ratio - 1.0).abs() < 1e-9, "{row:?}");
        assert!(row.t_dns_ms > 100.0, "hierarchy walk expected: {row:?}");
    }

    #[test]
    fn pull_ratio_exceeds_one() {
        let row = run_resolution_cell(CpKind::LispDrop, Ns::from_ms(30), 1);
        assert!(row.ratio > 1.1, "{row:?}");
        assert!(row.t_map_eff_ms > 50.0, "{row:?}");
    }

    #[test]
    fn alt_worse_than_mrms() {
        let mrms = run_resolution_cell(CpKind::LispDrop, Ns::from_ms(30), 1);
        let alt = run_resolution_cell(CpKind::Alt { hops: 6 }, Ns::from_ms(30), 1);
        assert!(
            alt.t_map_eff_ms > mrms.t_map_eff_ms,
            "alt {} vs mrms {}",
            alt.t_map_eff_ms,
            mrms.t_map_eff_ms
        );
    }

    #[test]
    fn ablation_on_demand_slower() {
        let (pre, demand) = run_ablation_precompute(1);
        assert!(demand > pre, "precompute {pre} vs on-demand {demand}");
        // The 2 ms on-demand penalty lands once on the DNS path.
        assert!(
            demand - pre >= 1.5 && demand - pre <= 3.0,
            "delta {}",
            demand - pre
        );
    }
}
