//! **E6 — map-cache behaviour under TTL aging and workload skew.**
//!
//! The paper's §1: "a hit might not necessarily be found, either because
//! the mapping has aged out, or simply because it was never requested
//! before." A long-running Zipf workload over many destinations exercises
//! exactly this: the experiment sweeps the mapping TTL and reports the
//! ITR cache hit ratio, misses, and expirations for the vanilla pull
//! control plane (the PCE control plane never takes a data-driven miss —
//! shown alongside).

use crate::experiments::{run_world, Cell, Grid, Horizon, QUEUE};
use crate::hosts::{FlowMode, FlowSpec};
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use crate::workload::{PoissonArrivals, ZipfPicker};
use lispdp::Xtr;
use lispwire::dnswire::Name;
use netsim::Ns;

/// Every cell runs until 30 s after its last flow starts.
pub const HORIZON: Horizon = Horizon::AfterLastFlow(Ns::from_secs(30));

/// One cell: 150 Poisson(1.2/s) flows over 16 destination hosts with
/// Zipf(`zipf_s`) popularity, host-granular mappings with the given TTL.
pub fn spec(cp: CpKind, ttl_minutes: u16, zipf_s: f64, seed: u64) -> ScenarioSpec {
    let dest_count = 16;
    let mut arrivals = PoissonArrivals::new(seed, 1.2);
    let mut zipf = ZipfPicker::new(seed.wrapping_add(1), dest_count, zipf_s);
    let flows = (0..150)
        .map(|_| FlowSpec {
            start: arrivals.next_arrival(),
            qname: Name::parse_str(&format!("host-{}.d.example", zipf.pick())).expect("valid"),
            mode: FlowMode::Udp {
                packets: 3,
                interval: Ns::from_ms(2),
                size: 300,
            },
        })
        .collect();
    ScenarioSpec::fig1(cp).with(|s| {
        s.set_dest_count(dest_count);
        s.mapping_ttl_minutes = ttl_minutes;
        s.fine_grained_mappings = true;
        s.set_flows(flows);
        s.pull_miss_policy = Some(QUEUE);
    })
}

/// E6: TTL × skew for vanilla, one PCE row per skew.
pub fn grid() -> Grid<(CpKind, u16, f64)> {
    let mut cells = Vec::new();
    for zipf_s in [0.0, 1.0] {
        for ttl in [1u16, 2, 10] {
            cells.push((CpKind::LispQueue, ttl, zipf_s));
        }
        cells.push((CpKind::Pce, 10, zipf_s));
    }
    Grid {
        name: "e6",
        title: "Map-cache behaviour under TTL aging and workload skew",
        key: "cache",
        heading: "E6: map-cache hit ratio vs TTL and workload skew (vanilla LISP vs PCE)",
        columns: &[
            "cp",
            "ttl_min",
            "zipf_s",
            "hits",
            "misses",
            "expired",
            "hit_ratio",
            "affected_pkts",
        ],
        cells,
        row: |&(cp, ttl, zipf_s), seed| {
            let world = run_world(&spec(cp, ttl, zipf_s, seed), seed, HORIZON);
            // Only the S-side ITRs see the forward data path; affected
            // packets were dropped or queued while resolving.
            let (mut hits, mut misses, mut expired, mut affected) = (0, 0, 0, 0);
            for &x in &world.site("S").xtrs {
                let xtr = world.sim.node_ref::<Xtr>(x);
                hits += xtr.cache.hit_count;
                misses += xtr.cache.miss_count;
                expired += xtr.cache.expirations;
                affected += xtr.stats.miss_drops + xtr.stats.queued;
            }
            let total = hits + misses;
            let hit_ratio = if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            };
            vec![
                Cell::str(cp.label()),
                Cell::u64(u64::from(ttl)),
                Cell::f64(zipf_s, 1),
                Cell::u64(hits),
                Cell::u64(misses),
                Cell::u64(expired),
                Cell::f64(hit_ratio, 3),
                Cell::u64(affected),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Section;

    fn cell(cp: CpKind, ttl: u16, zipf_s: f64) -> Section {
        Grid {
            cells: vec![(cp, ttl, zipf_s)],
            ..grid()
        }
        .section(3, 1)
    }

    #[test]
    fn longer_ttl_improves_hit_ratio() {
        let short = cell(CpKind::LispQueue, 1, 1.0);
        let long = cell(CpKind::LispQueue, 10, 1.0);
        let ratio = |s: &Section| s.num(0, "hit_ratio").unwrap();
        assert!(
            ratio(&long) >= ratio(&short),
            "short {short:?} long {long:?}"
        );
        assert!(
            short.num(0, "expired").unwrap() > 0.0,
            "1-minute TTL must age out: {short:?}"
        );
    }

    #[test]
    fn skew_improves_hit_ratio() {
        let uniform = cell(CpKind::LispQueue, 2, 0.0);
        let skewed = cell(CpKind::LispQueue, 2, 1.2);
        assert!(
            skewed.num(0, "hit_ratio") >= uniform.num(0, "hit_ratio"),
            "uniform {uniform:?} skewed {skewed:?}"
        );
    }

    #[test]
    fn pce_has_no_data_driven_misses() {
        let pce = cell(CpKind::Pce, 1, 1.0);
        assert_eq!(pce.num(0, "affected_pkts"), Some(0.0), "{pce:?}");
    }

    #[test]
    fn misses_happen_on_cold_start() {
        let s = cell(CpKind::LispQueue, 10, 1.0);
        assert!(s.num(0, "misses").unwrap() > 0.0);
        assert!(s.num(0, "hits").unwrap() > 0.0);
    }
}
