//! Golden-compat pins: the `ScenarioSpec::fig1` preset must reproduce
//! the pre-redesign E1–E8 tables **byte-identically** at the default
//! seed (1). The golden files under `tests/golden/` were rendered by the
//! hand-built `Fig1Builder` world before the declarative-spec redesign;
//! any drift in node ordering, link setup, addressing, or formatting
//! shows up here as a diff.
//!
//! Regenerate (only when an intentional behaviour change is being made)
//! with `UPDATE_GOLDEN=1 cargo test --test golden_compat`.

use pcelisp::experiments::{
    e10_recovery, e11_scale_xl, e12_adversarial, e13_availability, e1_fig1, e2_drops,
    e3_resolution, e4_tcp_setup, e5_te, e6_cache, e7_reverse, e8_overhead,
};
use std::path::PathBuf;

const SEED: u64 = 1;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, want,
        "{name} drifted from the pre-redesign golden table"
    );
}

#[test]
fn e1_fig1_table_golden() {
    check("e1_fig1", &e1_fig1::run_fig1_trace(SEED).table().render());
}

#[test]
fn e2_drops_table_golden() {
    check("e2_drops", &e2_drops::run_drops(SEED).table().render());
}

#[test]
fn e3_resolution_table_golden() {
    check(
        "e3_resolution",
        &e3_resolution::run_resolution(SEED).table().render(),
    );
}

#[test]
fn e3_ablation_precompute_golden() {
    let (pre, demand) = e3_resolution::run_ablation_precompute(SEED);
    check(
        "e3_ablation_precompute",
        &format!("A2 ablation: precomputed = {pre:.1} ms; on-demand = {demand:.1} ms\n"),
    );
}

#[test]
fn e4_tcp_setup_table_golden() {
    check(
        "e4_tcp_setup",
        &e4_tcp_setup::run_tcp_setup(SEED).table().render(),
    );
}

#[test]
fn e5_te_table_golden() {
    check("e5_te", &e5_te::run_te(SEED).table().render());
}

#[test]
fn e5_ablation_push_table_golden() {
    check(
        "e5_ablation_push",
        &e5_te::run_ablation_push(SEED).table().render(),
    );
}

#[test]
fn e6_cache_table_golden() {
    check("e6_cache", &e6_cache::run_cache(SEED).table().render());
}

#[test]
fn e7_reverse_table_golden() {
    check(
        "e7_reverse",
        &e7_reverse::run_reverse(4, SEED).table().render(),
    );
}

#[test]
fn e8_overhead_table_golden() {
    check(
        "e8_overhead",
        &e8_overhead::run_overhead(SEED).table().render(),
    );
}

// E10 postdates the redesign; its golden pins the dynamics subsystem's
// determinism contract from the experiment's introduction onward (a
// locator failure must replay bit-identically, recovery timings included).
#[test]
fn e10_recovery_table_golden() {
    check(
        "e10_recovery",
        &e10_recovery::run_recovery(SEED).table().render(),
    );
}

// E11 pins the XL-scale sweep — run *in parallel* (auto jobs), because
// byte-identity across thread counts is exactly the contract the golden
// protects (DESIGN.md §8).
#[test]
fn e11_scale_xl_table_golden() {
    check(
        "e11_scale_xl",
        &e11_scale_xl::run_scale_xl_jobs(SEED, 0).table().render(),
    );
}

// E12 pins the adversarial sweep — also run with auto jobs, because the
// attack scripts are scheduled at build time and must replay
// byte-identically at any `--jobs` level (DESIGN.md §8/§10).
#[test]
fn e12_adversarial_tables_golden() {
    let r = e12_adversarial::run_adversarial_jobs(SEED, 0);
    let rendered: Vec<String> = r.tables().iter().map(|t| t.render()).collect();
    check("e12_adversarial", &rendered.join("\n"));
}

// E13 pins the availability sweep — crash/restart of the mapping node
// plus deterministic failover must replay byte-identically, and (like
// E11/E12) at any `--jobs` level, so the golden runs with auto jobs.
#[test]
fn e13_availability_table_golden() {
    check(
        "e13_availability",
        &e13_availability::run_availability_jobs(SEED, 0)
            .table()
            .render(),
    );
}
