//! Integration: parallel sweep execution preserves the determinism
//! contract (DESIGN.md §2/§8).
//!
//! * Property: `exp_all`-style reports — registry experiments rendered
//!   to tables *and* typed JSON — are byte-identical for
//!   jobs ∈ {1, 2, 8}, across seeds. Cells share nothing and results
//!   reassemble in input order, so thread count must never leak into a
//!   report.
//! * The `jobs = 0` auto setting resolves to *some* worker count but
//!   still produces the same bytes.

use pcelisp::experiments::{by_name, Experiment};
use proptest::prelude::*;

/// Render an experiment the way `exp_all --json` consumes it: printed
/// tables plus the typed JSON document.
fn report_bytes(exp: &dyn Experiment, seed: u64, jobs: usize) -> String {
    let report = exp.run(seed, jobs);
    let tables: String = report
        .tables()
        .iter()
        .map(|t| t.render())
        .collect::<Vec<_>>()
        .join("\n");
    format!("{tables}\n{}", report.to_json())
}

/// Assert one experiment's report is byte-identical at every job count.
fn assert_identical_across_jobs(name: &str, seed: u64, job_counts: &[usize]) {
    let exp = by_name(name).expect("registered");
    let serial = report_bytes(exp.as_ref(), seed, 1);
    for &jobs in job_counts {
        let parallel = report_bytes(exp.as_ref(), seed, jobs);
        assert_eq!(
            serial, parallel,
            "{name} seed {seed} drifted between jobs=1 and jobs={jobs}"
        );
    }
}

proptest! {
    /// Any seed: the cheapest grid experiment (E8, 5 cells) keeps its
    /// full report byte-identical for jobs ∈ {1, 2, 8}.
    #[test]
    fn e8_report_byte_identical_across_job_counts(seed in 1u64..1_000_000) {
        assert_identical_across_jobs("e8", seed, &[2, 8]);
    }
}

/// The wide sweeps, jobs ∈ {1, 2, 8} across three seeds each — the
/// `exp_all`-shaped grids (cp × owd and cp × sites) that exercise every
/// cell-runner family.
#[test]
fn grid_sweeps_byte_identical_across_seeds_and_jobs() {
    for seed in [1u64, 2, 7] {
        for name in ["e2", "e9"] {
            assert_identical_across_jobs(name, seed, &[2, 8]);
        }
    }
}

/// One deterministic spot check for each remaining grid experiment so
/// the whole registry is covered (jobs 1 vs 3).
#[test]
fn remaining_sweeps_identical_serial_vs_parallel() {
    for name in ["e3", "e4", "e5", "e6", "e10", "e13"] {
        assert_identical_across_jobs(name, 5, &[3]);
    }
}

/// E11 is the sweep parallelism exists for; pin its serial/parallel
/// identity at the default seed (the golden seed).
#[test]
fn e11_identical_serial_vs_parallel() {
    assert_identical_across_jobs("e11", 1, &[4]);
}

/// Auto job resolution (`jobs = 0`) must also produce identical bytes.
#[test]
fn auto_jobs_identical_to_serial() {
    assert_identical_across_jobs("e2", 9, &[0]);
}
