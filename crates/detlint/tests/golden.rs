//! Fixture-tree golden tests for `detlint` (ISSUE PR 7, test satellite).
//!
//! The seeded fixture tree under `fixtures/` pins every rule to exact
//! `file:line:col` coordinates, exercises suppression hygiene in both
//! honoured and degenerate forms, freezes the `--json` wire format
//! against `tests/golden_fixtures.json`, and finally asserts the real
//! workspace is lint-clean under the committed `detlint.toml` — the
//! same check CI runs.

use detlint::config::Config;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixtures_report() -> detlint::Report {
    let root = fixtures_root();
    let cfg_text = std::fs::read_to_string(root.join("detlint.toml")).unwrap();
    let cfg = Config::parse(&cfg_text).unwrap();
    detlint::run(&root, &cfg).unwrap()
}

/// Every rule fires at exactly the pinned coordinates, and nothing else
/// in the bad tree fires: the decoy lines (comments, strings, token-arg
/// arithmetic, `encode` outside `on_packet`) stay silent.
#[test]
fn every_rule_fires_at_pinned_locations() {
    let report = fixtures_report();
    let got: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.rule.clone(), f.line))
        .collect();
    let expect: Vec<(&str, &str, u32)> = vec![
        ("bad/directives.rs", "directive-missing-reason", 3),
        ("bad/directives.rs", "R1", 3),
        ("bad/directives.rs", "directive-unused", 5),
        ("bad/directives.rs", "directive-malformed", 7),
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
        ("bad/r4_sched.rs", "R4", 5),
        ("bad/r4_sched.rs", "R4", 7),
        ("bad/r4_sched.rs", "R4", 9),
        ("bad/r4_sched.rs", "R4", 11),
        ("bad/r4_sched.rs", "R4", 13),
        ("bad/r5_encode.rs", "R5", 6),
    ];
    let expect: Vec<(String, String, u32)> = expect
        .into_iter()
        .map(|(f, r, l)| (f.to_string(), r.to_string(), l))
        .collect();
    assert_eq!(got, expect);
}

/// Audited suppressions are honoured — the violation disappears and the
/// mandatory reason is echoed — while a reason-less allow suppresses
/// nothing (the R1 at directives.rs:3 stays a violation).
#[test]
fn suppressions_with_reasons_are_honoured_and_echoed() {
    let report = fixtures_report();
    let sup: Vec<(String, String, u32, String)> = report
        .suppressions
        .iter()
        .map(|s| (s.file.clone(), s.rule.clone(), s.line, s.reason.clone()))
        .collect();
    assert_eq!(
        sup,
        vec![
            (
                "clean/suppressed.rs".to_string(),
                "R1".to_string(),
                3,
                "oracle map, compared by keyed lookup only".to_string()
            ),
            (
                "clean/suppressed.rs".to_string(),
                "R2".to_string(),
                6,
                "standalone form covers the next code line".to_string()
            ),
        ]
    );
    // Suppressed files contribute no violations at all.
    assert!(report
        .findings
        .iter()
        .all(|f| !f.file.starts_with("clean/")));
    // A bare `allow(R1)` does NOT suppress: the violation it sits on
    // survives alongside the hygiene finding.
    assert!(report
        .findings
        .iter()
        .any(|f| f.file == "bad/directives.rs" && f.rule == "R1" && f.line == 3));
}

/// The `--json` rendering is byte-identical to the committed golden.
#[test]
fn json_output_is_stable() {
    let report = fixtures_report();
    let golden = include_str!("golden_fixtures.json");
    assert_eq!(detlint::to_json(&report), golden);
}

/// The clean fixture file really is clean, and the whole tree's summary
/// counts match the golden (8 files, 20 violations, 2 suppressions).
#[test]
fn clean_fixture_and_summary_counts() {
    let report = fixtures_report();
    assert_eq!(report.files_scanned, 8);
    assert_eq!(report.findings.len(), 20);
    assert_eq!(report.suppressions.len(), 2);
    assert!(!report.is_clean());
}

/// Self-test: the real workspace is lint-clean under the committed
/// `detlint.toml`. This is the exact check the CI `detlint` job runs;
/// any new HashMap/wall-clock/partial_cmp/unchecked-schedule/hot-path
/// encode in runtime code fails this test locally first.
#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let cfg_text = std::fs::read_to_string(root.join("detlint.toml")).unwrap();
    let cfg = Config::parse(&cfg_text).unwrap();
    let report = detlint::run(&root, &cfg).unwrap();
    let rendered = detlint::to_human(&report);
    assert!(
        report.is_clean(),
        "workspace has detlint violations:\n{rendered}"
    );
    // Every workspace suppression carries its audited reason.
    assert!(report.suppressions.iter().all(|s| !s.reason.is_empty()));
}

/// The binary contract CI relies on: exit 0 on the clean workspace,
/// non-zero on the violation fixture (acceptance criterion).
#[test]
fn binary_exit_codes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let clean = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--root")
        .arg(&root)
        .arg("--config")
        .arg(root.join("detlint.toml"))
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "expected exit 0 on workspace:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let fix = fixtures_root();
    let dirty = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--root")
        .arg(&fix)
        .arg("--config")
        .arg(fix.join("detlint.toml"))
        .output()
        .unwrap();
    assert_eq!(dirty.status.code(), Some(1), "violations must exit 1");

    let usage = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--no-such-flag")
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}
