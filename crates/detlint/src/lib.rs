//! `detlint` — the workspace determinism linter (DESIGN.md §11).
//!
//! Every reported number in this reproduction rests on the §2 contract:
//! a run's trace is byte-identical at any seed, thread count, and map
//! layout. The runtime proptests check that dynamically; `detlint`
//! enforces the *bug class* statically, at `cargo` time: it tokenizes
//! every source file (comments, strings and raw strings handled
//! correctly — this is a lexer, not a grep) and applies the R1–R5 rule
//! set described in [`rules`].
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p detlint            # human report, exit 0 iff clean
//! cargo run -p detlint -- --json  # machine-readable, stable ordering
//! ```
//!
//! The scope is a constant table in [`rules`]: the rules with their
//! path exemptions, the R2 banned names, the R4 schedule calls, and
//! the trees no rule reads. No finding can be waived.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod rules;

use rules::{path_matches, Finding, SCAN_EXCLUDE};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lint every `.rs` file under `root` outside [`SCAN_EXCLUDE`] and
/// hidden directories. Paths in the report are relative to `root`,
/// `/`-separated, so output is machine-independent.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, "", &mut files)?;
    // Deterministic scan order.
    files.sort();

    let mut report = Report::default();
    for (relpath, path) in &files {
        let src = fs::read_to_string(path)?;
        report
            .findings
            .extend(rules::scan_file(relpath, &lexer::lex(&src)));
    }
    report.files_scanned = files.len();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        let path = entry.path();
        if path.is_dir() {
            if !name.starts_with('.') && !SCAN_EXCLUDE.iter().any(|e| path_matches(&rel, e)) {
                collect_rs(&path, &rel, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Render the report as stable, pretty-printed JSON (sorted arrays,
/// fixed key order — byte-identical across runs and machines).
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\n  \"version\": 2,\n  \"violations\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}{}\n",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.message),
            if i + 1 < report.findings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"summary\": {{\"files_scanned\": {}, \"violations\": {}}}\n}}\n",
        report.files_scanned,
        report.findings.len()
    ));
    s
}

/// Render the report for humans.
pub fn to_human(report: &Report) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&format!(
            "{}:{}:{} [{}] {}\n",
            f.file, f.line, f.col, f.rule, f.message
        ));
    }
    s.push_str(&format!(
        "detlint: {} file(s) scanned, {} violation(s)\n",
        report.files_scanned,
        report.findings.len()
    ));
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
