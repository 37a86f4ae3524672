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

use crate::experiments::{
    cross, fig1_one_flow, run, Cell, Grid, Horizon, RunRecord, Section, Sections, OWD_SWEEP, QUEUE,
};
use crate::hosts::FlowMode;
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use netsim::Ns;

/// How long every E3 cell runs.
pub const HORIZON: Horizon = Horizon::At(Ns::from_secs(60));

/// Control planes compared in E3 (lisp-drop runs with the queue
/// policy, so it stands for the map-resolver/map-server pull plane).
pub const VARIANTS: [CpKind; 5] = [
    CpKind::LispDrop,
    CpKind::Alt { hops: 4 },
    CpKind::Cons { cdr_depth: 1 },
    CpKind::Nerd,
    CpKind::Pce,
];

/// One (cp, owd) cell. Pull planes queue, so the first packet's wait
/// is exactly `T_map`.
pub fn spec(cp: CpKind, owd: Ns) -> ScenarioSpec {
    let mode = FlowMode::Udp {
        packets: 4,
        interval: Ns::from_ms(1),
        size: 200,
    };
    fig1_one_flow(cp, mode).with(|s| {
        s.set_provider_owd(owd);
        s.pull_miss_policy = Some(QUEUE);
    })
}

/// `(T_DNS, T_map_eff)` of a run, in ms: the flow's DNS time and the
/// longest ITR queue delay (the first packet's wait for its mapping).
pub fn timings(r: &RunRecord) -> (f64, f64) {
    let t_dns = r.flows[0].dns_time().unwrap_or(Ns::ZERO);
    (t_dns.as_ms_f64(), r.max_queue_delay_ms())
}

/// The E3 grid: every plane at every [`crate::experiments::OWD_SWEEP`]
/// delay.
pub fn grid() -> Grid<(CpKind, Ns)> {
    Grid {
        name: "e3",
        title: TITLE,
        key: "resolution",
        heading: "E3: (T_DNS + T_map_eff)/T_DNS per control plane",
        columns: &["cp", "owd_ms", "t_dns_ms", "t_map_eff_ms", "ratio"],
        cells: cross(&OWD_SWEEP, &VARIANTS),
        row: |&(cp, owd), seed| {
            let (t_dns, t_map) = timings(&run(&spec(cp, owd), seed, HORIZON));
            let ratio = if t_dns > 0.0 {
                (t_dns + t_map) / t_dns
            } else {
                0.0
            };
            vec![
                Cell::str(cp.label()),
                Cell::u64(owd.as_ms()),
                Cell::f64(t_dns, 1),
                Cell::f64(t_map, 1),
                Cell::f64(ratio, 3),
            ]
        },
    }
}

/// **Ablation A2** — PCE precompute vs. on-demand computation at step
/// 6: the DNS time of one flow with each.
pub fn ablation_precompute(seed: u64) -> Section {
    let t_dns = |precompute: bool| {
        let mode = FlowMode::Udp {
            packets: 1,
            interval: Ns::from_ms(1),
            size: 100,
        };
        let spec = fig1_one_flow(CpKind::Pce, mode).with(|s| s.pce_precompute = precompute);
        let r = run(&spec, seed, Horizon::At(Ns::from_secs(30)));
        r.flows[0].dns_time().map_or(f64::NAN, |t| t.as_ms_f64())
    };
    let mut s = Section::new(
        "ablation_precompute",
        "A2: PCE precompute vs on-demand mapping computation",
        &["variant", "t_dns_ms"],
    );
    s.row(vec![
        Cell::str("precomputed (paper)"),
        Cell::f64(t_dns(true), 1),
    ]);
    s.row(vec![
        Cell::str("on-demand (ablated)"),
        Cell::f64(t_dns(false), 1),
    ]);
    s
}

const TITLE: &str = "Mapping resolution hidden inside the DNS time";

/// The registry entry for E3: the grid plus the A2 ablation.
pub fn experiment() -> Sections {
    Sections {
        name: "e3",
        title: TITLE,
        run: |seed, jobs| vec![grid().section(seed, jobs), ablation_precompute(seed)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(cp: CpKind) -> (f64, f64) {
        timings(&run(&spec(cp, Ns::from_ms(30)), 1, HORIZON))
    }

    #[test]
    fn pce_ratio_is_one() {
        let (t_dns, t_map) = cell(CpKind::Pce);
        assert!(t_map == 0.0, "T_map_eff {t_map}");
        assert!(t_dns > 100.0, "hierarchy walk expected: T_DNS {t_dns}");
    }

    #[test]
    fn pull_ratio_exceeds_one() {
        let (t_dns, t_map) = cell(CpKind::LispDrop);
        assert!(
            (t_dns + t_map) / t_dns > 1.1,
            "T_DNS {t_dns} T_map_eff {t_map}"
        );
        assert!(t_map > 50.0, "T_map_eff {t_map}");
    }

    #[test]
    fn alt_worse_than_mrms() {
        let (_, mrms) = cell(CpKind::LispDrop);
        let (_, alt) = cell(CpKind::Alt { hops: 6 });
        assert!(alt > mrms, "alt {alt} vs mrms {mrms}");
    }

    #[test]
    fn ablation_on_demand_slower() {
        let s = ablation_precompute(1);
        let pre = s.num(0, "t_dns_ms").unwrap();
        let demand = s.num(1, "t_dns_ms").unwrap();
        assert!(demand > pre, "precompute {pre} vs on-demand {demand}");
        // The 2 ms on-demand penalty lands once on the DNS path.
        assert!(
            demand - pre >= 1.5 && demand - pre <= 3.0,
            "delta {}",
            demand - pre
        );
    }
}
