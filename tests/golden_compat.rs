//! Golden-compat pins: every registry experiment's rendered sections —
//! exactly what `exp_all` prints — must reproduce the pinned tables
//! **byte-identically** at the default seed (1). The E1–E8 golden files
//! under `tests/golden/` were rendered by the hand-built `Fig1Builder`
//! world before the declarative-spec redesign; any drift in node
//! ordering, link setup, addressing, or formatting shows up here as a
//! diff.
//!
//! Regenerate (only when an intentional behaviour change is being made)
//! with `UPDATE_GOLDEN=1 cargo test --test golden_compat`.

use pcelisp::experiments::{by_name, Section};
use std::path::PathBuf;

const SEED: u64 = 1;

/// The sections of registry experiment `id` at the golden seed — what
/// `exp_all` prints.
fn sections(id: &str, jobs: usize) -> Vec<Section> {
    by_name(id).expect("registered").run(SEED, jobs).sections
}

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
    check("e1_fig1", &sections("e1", 1)[0].render());
}

#[test]
fn e2_drops_table_golden() {
    check("e2_drops", &sections("e2", 1)[0].render());
}

#[test]
fn e3_resolution_table_golden() {
    check("e3_resolution", &sections("e3", 1)[0].render());
}

#[test]
fn e3_ablation_precompute_golden() {
    let a2 = &sections("e3", 1)[1];
    let (pre, demand) = (&a2.rows[0][1].text, &a2.rows[1][1].text);
    check(
        "e3_ablation_precompute",
        &format!("A2 ablation: precomputed = {pre} ms; on-demand = {demand} ms\n"),
    );
}

#[test]
fn e4_tcp_setup_table_golden() {
    check("e4_tcp_setup", &sections("e4", 1)[0].render());
}

#[test]
fn e5_te_table_golden() {
    check("e5_te", &sections("e5", 1)[0].render());
}

#[test]
fn e5_ablation_push_table_golden() {
    check("e5_ablation_push", &sections("e5", 1)[1].render());
}

#[test]
fn e6_cache_table_golden() {
    check("e6_cache", &sections("e6", 1)[0].render());
}

#[test]
fn e7_reverse_table_golden() {
    check("e7_reverse", &sections("e7", 1)[0].render());
}

#[test]
fn e8_overhead_table_golden() {
    check("e8_overhead", &sections("e8", 1)[0].render());
}

// E9 pins the multi-site scale sweep, like E11 with auto jobs: the
// table must come out byte-identical at any `--jobs` level (DESIGN.md §8).
#[test]
fn e9_scale_table_golden() {
    check("e9_scale", &sections("e9", 0)[0].render());
}

// E10 postdates the redesign; its golden pins the dynamics subsystem's
// determinism contract from the experiment's introduction onward (a
// locator failure must replay bit-identically, recovery timings included).
#[test]
fn e10_recovery_table_golden() {
    check("e10_recovery", &sections("e10", 1)[0].render());
}

// E11 pins the XL-scale sweep — run *in parallel* (auto jobs), because
// byte-identity across thread counts is exactly the contract the golden
// protects (DESIGN.md §8).
#[test]
fn e11_scale_xl_table_golden() {
    check("e11_scale_xl", &sections("e11", 0)[0].render());
}

// E12 pins the adversarial sweep — also run with auto jobs, because the
// attack scripts are scheduled at build time and must replay
// byte-identically at any `--jobs` level (DESIGN.md §8/§10).
#[test]
fn e12_adversarial_tables_golden() {
    let rendered: Vec<String> = sections("e12", 0).iter().map(Section::render).collect();
    check("e12_adversarial", &rendered.join("\n"));
}

// E13 pins the availability sweep — crash/restart of the mapping node
// plus deterministic failover must replay byte-identically, and (like
// E11/E12) at any `--jobs` level, so the golden runs with auto jobs.
#[test]
fn e13_availability_table_golden() {
    check("e13_availability", &sections("e13", 0)[0].render());
}
