//! Tests of the catalogue against the driver's rules and against
//! `BENCHMARK.json`. The other unit tests sit beside the code they test.

use crate::catalog::{end_to_end, per_layer, MetricDef, WORKLOADS};
use crate::json::{self, Json};
use std::collections::BTreeSet;

/// The contract at the repo root, five directories up from this file.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The driver's name rule: starts with a letter or digit, at most 64 of
/// letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The driver's unit rule.
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn name_rule_accepts_and_rejects() {
    assert!(valid_name("plane.lisp-alt-4.ns_per_event"));
    assert!(valid_name("9lives"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_unit("1/s") && valid_unit("MiB") && !valid_unit("µs") && !valid_unit(""));
}

#[test]
fn every_emitted_name_obeys_the_driver_rules_and_is_unique() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
    }
    let metrics: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
    assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
    for d in &metrics {
        assert!(valid_name(&d.name), "{}", d.name);
        assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
        assert!(seen.insert(d.name.clone()), "{} used twice", d.name);
    }
    for d in end_to_end() {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        // The driver's cap, and ISSUE 12's on a timing.
        let cap = if matches!(d.unit, "s" | "cu") {
            0.15
        } else {
            0.25
        };
        assert!(bound > 0.0 && bound <= cap, "{}", d.name);
    }
}

/// What `BENCHMARK.json` must say about the workloads and metrics, built
/// from the catalogue.
fn catalogue_as_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let metric = |d: &MetricDef| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json::quote(&d.name),
            json::quote(d.unit),
            json::quote(d.better.as_str())
        )
    };
    let list = |defs: Vec<MetricDef>| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]",
        workloads.join(",\n"),
        list(end_to_end()),
        list(per_layer())
    )
}

#[test]
fn emitted_names_equal_benchmark_json() {
    let expected = catalogue_as_json();
    let file = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let ours = json::parse(&format!("{{{expected}}}")).expect("catalogue renders as JSON");
    for key in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            file.get(key),
            ours.get(key),
            "BENCHMARK.json differs from the catalogue in {key:?}; it should hold:\n{expected}"
        );
    }
    let keys: Vec<&str> = file
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        file.get("paths"),
        Some(&Json::Arr(vec![Json::Str(
            "crates/bench/src/bin/benchmark".to_string()
        )]))
    );
}
