//! The `detlint` CLI. See the crate docs ([`detlint`]) for what the
//! rules enforce and [`detlint::rules`] for the scope they run over.
//!
//! Exit status: 0 when the tree is clean, 1 on any violation, 2 on
//! usage or I/O errors.

use detlint::rules::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: detlint [--json] [--root DIR] [--list-rules]
  --json        machine-readable output (stable ordering)
  --root DIR    tree to lint (default: .)
  --list-rules  print the rule set and exit";

fn main() -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage_error("--root needs a directory"),
            },
            "--list-rules" => {
                for rule in &RULES {
                    println!("{}: {}", rule.id, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let report = match detlint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", detlint::to_json(&report));
    } else {
        print!("{}", detlint::to_human(&report));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
