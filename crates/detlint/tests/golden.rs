//! Fixture-tree golden tests for `detlint`.
//!
//! The seeded fixture tree under `fixtures/` pins every rule to exact
//! `file:line:col` coordinates, shows that an allow comment waives
//! nothing, freezes the `--json` wire format against
//! `tests/golden_fixtures.json`, and finally asserts the real workspace
//! is lint-clean — the same check CI runs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn fixtures_report() -> detlint::Report {
    detlint::run(&fixtures_root()).unwrap()
}

/// Every rule fires at exactly the pinned coordinates, and nothing else
/// in the bad tree fires: the decoy lines (comments, strings, token-arg
/// arithmetic, `encode` outside `on_packet`, a `fn partial_cmp`
/// definition) stay silent. The R1 at `directives.rs:3` carries a
/// reasoned allow comment and is reported all the same.
#[test]
fn every_rule_fires_at_pinned_locations() {
    let report = fixtures_report();
    let got: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule, f.line))
        .collect();
    let expect: Vec<(&str, &str, u32)> = vec![
        ("bad/directives.rs", "R1", 3),
        ("bad/r1_maps.rs", "R1", 2),
        ("bad/r1_maps.rs", "R1", 3),
        ("bad/r1_maps.rs", "R1", 6),
        ("bad/r1_maps.rs", "R1", 7),
        ("bad/r2_time.rs", "R2", 4),
        ("bad/r2_time.rs", "R2", 5),
        ("bad/r2_time.rs", "R2", 9),
        ("bad/r2_time.rs", "R2", 10),
        ("bad/r3_float.rs", "R3", 4),
        ("bad/r3_float.rs", "R3", 8),
        ("bad/r3_float.rs", "R3", 16),
        ("bad/r3_float.rs", "R3", 28),
        ("bad/r4_sched.rs", "R4", 5),
        ("bad/r4_sched.rs", "R4", 7),
        ("bad/r4_sched.rs", "R4", 9),
        ("bad/r4_sched.rs", "R4", 11),
        ("bad/r4_sched.rs", "R4", 13),
        ("bad/r4_sched.rs", "R4", 15),
        ("bad/r5_encode.rs", "R5", 6),
    ];
    assert_eq!(got, expect);
}

/// A reasoned allow comment is honoured nowhere: the R1 it sits on is
/// reported at its column, and the version-2 JSON has no `suppressions`
/// to echo.
#[test]
fn suppressions_with_reasons_are_not_honoured() {
    let report = fixtures_report();
    let hits: Vec<(u32, u32)> = report
        .findings
        .iter()
        .filter(|f| f.file == "bad/directives.rs")
        .map(|f| (f.line, f.col))
        .collect();
    assert_eq!(hits, [(3, 23)]);
    let json = detlint::to_json(&report);
    assert!(json.contains("\"version\": 2"), "{json}");
    assert!(!json.contains("suppressions"), "{json}");
}

/// The `--json` rendering is byte-identical to the committed golden.
#[test]
fn json_output_is_stable() {
    let report = fixtures_report();
    let golden = include_str!("golden_fixtures.json");
    assert_eq!(detlint::to_json(&report), golden);
}

/// The clean fixture file really is clean, and the whole tree's summary
/// counts match the golden (7 files, 20 violations).
#[test]
fn clean_fixture_and_summary_counts() {
    let report = fixtures_report();
    assert_eq!(report.files_scanned, 7);
    assert_eq!(report.findings.len(), 20);
    assert!(report.findings.iter().all(|f| f.file.starts_with("bad/")));
    assert!(!report.is_clean());
}

/// Self-test: the real workspace is lint-clean. This is the exact check
/// the CI `detlint` job runs; any new HashMap/wall-clock/partial_cmp/
/// unchecked-schedule/hot-path encode in the tree fails this test
/// locally first.
#[test]
fn real_workspace_is_lint_clean() {
    let report = detlint::run(&workspace_root()).unwrap();
    let rendered = detlint::to_human(&report);
    assert!(
        report.is_clean(),
        "workspace has detlint violations:\n{rendered}"
    );
}

/// The binary contract CI relies on: exit 0 on the clean workspace,
/// 1 on the violation fixture, 2 on a usage error. The scope is a
/// constant, so `--config` is an unknown argument.
#[test]
fn binary_exit_codes() {
    let run = |args: &[&std::ffi::OsStr]| {
        Command::new(env!("CARGO_BIN_EXE_detlint"))
            .args(args)
            .output()
            .unwrap()
    };
    let root = workspace_root();
    let clean = run(&["--root".as_ref(), root.as_os_str()]);
    assert!(
        clean.status.success(),
        "expected exit 0 on workspace:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let fix = fixtures_root();
    let dirty = run(&["--root".as_ref(), fix.as_os_str()]);
    assert_eq!(dirty.status.code(), Some(1), "violations must exit 1");

    let usage = run(&["--config".as_ref(), "detlint.toml".as_ref()]);
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}
