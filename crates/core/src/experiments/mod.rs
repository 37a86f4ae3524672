//! Experiment harnesses (see DESIGN.md §4 and §6 for the index).
//!
//! Every experiment is registered behind the [`Experiment`] trait, so
//! runners iterate [`registry`] instead of hand-listing modules. A grid
//! experiment is data: a [`Grid`] of cells whose row function runs one
//! world through [`run`] and projects the [`RunRecord`] it returns.
//! Grids fan their cells across a worker pool (`jobs`: `0` = auto,
//! `1` = serial; reports are byte-identical either way — DESIGN.md §8):
//!
//! ```no_run
//! for exp in pcelisp::experiments::registry() {
//!     let report = exp.run(1, 0); // seed 1, auto-parallel
//!     report.print();
//!     let _json = report.to_json();
//! }
//! ```

pub mod grid;
pub mod record;
pub mod report;

pub mod e10_recovery;
pub mod e11_scale_xl;
pub mod e12_adversarial;
pub mod e13_availability;
pub mod e1_fig1;
pub mod e2_drops;
pub mod e3_resolution;
pub mod e4_tcp_setup;
pub mod e5_te;
pub mod e6_cache;
pub mod e7_reverse;
pub mod e8_overhead;
pub mod e9_scale;

pub use grid::{Grid, Sections};
pub use record::{run, run_world, CpTally, Horizon, RunRecord};
pub use report::{Cell, ExpReport, Experiment, Section, Value};

use crate::hosts::FlowMode;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use lispdp::MissPolicy;
use netsim::Ns;

/// The provider-link one-way-delay axis shared by the Fig.-1 sweeps
/// (E2 drops, E3 resolution, E4 TCP setup) — one definition so the
/// grids can't drift apart and each experiment's golden pins the same
/// axis.
pub const OWD_SWEEP: [Ns; 4] = [
    Ns::from_ms(15),
    Ns::from_ms(30),
    Ns::from_ms(60),
    Ns::from_ms(100),
];

/// The miss policy latency experiments give pull planes, so packets
/// wait for their mapping instead of being dropped.
pub const QUEUE: MissPolicy = MissPolicy::Queue { max_packets: 64 };

/// Every plane at every point of `axis`, axis-major: the cell list of
/// the plane × delay and plane × site-count grids.
pub fn cross<T: Copy>(axis: &[T], cps: &[CpKind]) -> Vec<(CpKind, T)> {
    axis.iter()
        .flat_map(|&x| cps.iter().map(move |&cp| (cp, x)))
        .collect()
}

/// The Fig. 1 world running one flow of `mode` to `host-0`.
pub fn fig1_one_flow(cp: CpKind, mode: FlowMode) -> ScenarioSpec {
    ScenarioSpec::fig1(cp).with(|s| s.set_flows(flow_script(&[Ns::ZERO], 4, mode)))
}

/// Every experiment in run order. This is the single source of truth:
/// runner `--list` output, the smoke-test expectations, and the docs
/// index all derive from it, so adding an entry here is the only step a
/// new experiment needs to be picked up everywhere.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e1_fig1::experiment()),
        Box::new(e2_drops::grid()),
        Box::new(e3_resolution::experiment()),
        Box::new(e4_tcp_setup::grid()),
        Box::new(e5_te::experiment()),
        Box::new(e6_cache::grid()),
        Box::new(e7_reverse::experiment()),
        Box::new(e8_overhead::grid()),
        Box::new(e9_scale::grid()),
        Box::new(e10_recovery::grid()),
        Box::new(e11_scale_xl::grid()),
        Box::new(e12_adversarial::experiment()),
        Box::new(e13_availability::grid()),
    ]
}

/// Look up one experiment by its registry name (`"e1"`, `"e2"`, …).
pub fn by_name(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_ordered() {
        // Derived from the registry length, not a hand-kept list, so a
        // new experiment only has to be added in `registry()` itself.
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        let expected: Vec<String> = (1..=registry().len()).map(|i| format!("e{i}")).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("e5").is_some());
        assert!(by_name("e99").is_none());
    }
}
