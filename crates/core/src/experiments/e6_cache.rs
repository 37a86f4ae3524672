//! **E6 — map-cache behaviour under TTL aging and workload skew.**
//!
//! The paper's §1: "a hit might not necessarily be found, either because
//! the mapping has aged out, or simply because it was never requested
//! before." A long-running Zipf workload over many destinations exercises
//! exactly this: the experiment sweeps the mapping TTL and reports the
//! ITR cache hit ratio, misses, and expirations for the vanilla pull
//! control plane (the PCE control plane never takes a data-driven miss —
//! shown alongside).

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::FlowMode;
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use crate::table::Table;
use crate::workload::{PoissonArrivals, ZipfPicker};
use lispdp::{MissPolicy, Xtr};
use lispwire::dnswire::Name;
use netsim::Ns;

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Control plane label.
    pub cp: String,
    /// Mapping TTL (minutes).
    pub ttl_minutes: u16,
    /// Zipf skew.
    pub zipf_s: f64,
    /// ITR cache hits.
    pub hits: u64,
    /// ITR cache misses.
    pub misses: u64,
    /// Entries that aged out.
    pub expirations: u64,
    /// Hit ratio.
    pub hit_ratio: f64,
    /// Packets dropped or queued while resolving.
    pub affected_packets: u64,
}

/// Sweep result.
#[derive(Debug, Clone, Default)]
pub struct CacheResult {
    /// All rows.
    pub rows: Vec<CacheRow>,
}

impl CacheResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "cache",
            "E6: map-cache hit ratio vs TTL and workload skew (vanilla LISP vs PCE)",
            &[
                "cp",
                "ttl_min",
                "zipf_s",
                "hits",
                "misses",
                "expired",
                "hit_ratio",
                "affected_pkts",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::u64(u64::from(r.ttl_minutes)),
                Cell::f64(r.zipf_s, 1),
                Cell::u64(r.hits),
                Cell::u64(r.misses),
                Cell::u64(r.expirations),
                Cell::f64(r.hit_ratio, 3),
                Cell::u64(r.affected_packets),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Build the Zipf/Poisson flow script.
fn zipf_flows(
    n_flows: usize,
    dest_count: usize,
    zipf_s: f64,
    rate_per_sec: f64,
    seed: u64,
) -> Vec<crate::hosts::FlowSpec> {
    let mut arrivals = PoissonArrivals::new(seed, rate_per_sec);
    let mut zipf = ZipfPicker::new(seed.wrapping_add(1), dest_count, zipf_s);
    (0..n_flows)
        .map(|_| crate::hosts::FlowSpec {
            start: arrivals.next_arrival(),
            qname: Name::parse_str(&format!("host-{}.d.example", zipf.pick())).expect("valid"),
            mode: FlowMode::Udp {
                packets: 3,
                interval: Ns::from_ms(2),
                size: 300,
            },
        })
        .collect()
}

/// Run one cell.
pub fn run_cache_cell(cp: CpKind, ttl_minutes: u16, zipf_s: f64, seed: u64) -> CacheRow {
    let n_flows = 150;
    let dest_count = 16;
    let flows = zipf_flows(n_flows, dest_count, zipf_s, 1.2, seed);
    let horizon = flows.last().map(|f| f.start).unwrap_or(Ns::ZERO) + Ns::from_secs(30);
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_dest_count(dest_count);
            s.mapping_ttl_minutes = ttl_minutes;
            s.fine_grained_mappings = true;
            s.set_flows(flows);
        })
        .build(seed);
    world.override_pull_miss_policy(MissPolicy::Queue { max_packets: 64 });
    world.schedule_all_flows();
    world.sim.run_until(horizon);

    let (mut hits, mut misses, mut expirations, mut affected) = (0u64, 0u64, 0u64, 0u64);
    // Only the S-side ITRs see the forward data path.
    for &x in &world.site("S").xtrs {
        let xtr = world.sim.node_ref::<Xtr>(x);
        hits += xtr.cache.hit_count;
        misses += xtr.cache.miss_count;
        expirations += xtr.cache.expirations;
        affected += xtr.stats.miss_drops + xtr.stats.queued;
    }
    let total = hits + misses;
    CacheRow {
        cp: cp.label().into_owned(),
        ttl_minutes,
        zipf_s,
        hits,
        misses,
        expirations,
        hit_ratio: if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        affected_packets: affected,
    }
}

/// Full sweep on up to `jobs` workers (`0` = auto): TTL × skew for
/// vanilla, one PCE row per skew.
pub fn run_cache_jobs(seed: u64, jobs: usize) -> CacheResult {
    let mut cells = Vec::new();
    for &zipf_s in &[0.0, 1.0] {
        for &ttl in &[1u16, 2, 10] {
            cells.push((CpKind::LispQueue, ttl, zipf_s));
        }
        cells.push((CpKind::Pce, 10, zipf_s));
    }
    let rows = crate::experiments::sweep::Sweep::new("e6", cells).run(
        jobs,
        |&(cp, ttl, zipf_s)| format!("{}/ttl={ttl}m/s={zipf_s}", cp.label()),
        |&(cp, ttl, zipf_s)| run_cache_cell(cp, ttl, zipf_s, seed),
    );
    CacheResult { rows }
}

/// Full sweep, serial.
pub fn run_cache(seed: u64) -> CacheResult {
    run_cache_jobs(seed, 1)
}

/// The registry entry for E6.
pub struct E6Cache;

impl crate::experiments::Experiment for E6Cache {
    fn name(&self) -> &'static str {
        "e6"
    }
    fn title(&self) -> &'static str {
        "Map-cache behaviour under TTL aging and workload skew"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title()).with_section(run_cache_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_ttl_improves_hit_ratio() {
        let short = run_cache_cell(CpKind::LispQueue, 1, 1.0, 3);
        let long = run_cache_cell(CpKind::LispQueue, 10, 1.0, 3);
        assert!(
            long.hit_ratio >= short.hit_ratio,
            "short {:?} long {:?}",
            short.hit_ratio,
            long.hit_ratio
        );
        assert!(
            short.expirations > 0,
            "1-minute TTL must age out: {short:?}"
        );
    }

    #[test]
    fn skew_improves_hit_ratio() {
        let uniform = run_cache_cell(CpKind::LispQueue, 2, 0.0, 3);
        let skewed = run_cache_cell(CpKind::LispQueue, 2, 1.2, 3);
        assert!(
            skewed.hit_ratio >= uniform.hit_ratio,
            "uniform {:?} skewed {:?}",
            uniform.hit_ratio,
            skewed.hit_ratio
        );
    }

    #[test]
    fn pce_has_no_data_driven_misses() {
        let pce = run_cache_cell(CpKind::Pce, 1, 1.0, 3);
        assert_eq!(pce.affected_packets, 0, "{pce:?}");
    }

    #[test]
    fn misses_happen_on_cold_start() {
        let row = run_cache_cell(CpKind::LispQueue, 10, 1.0, 3);
        assert!(row.misses > 0);
        assert!(row.hits > 0);
    }
}
