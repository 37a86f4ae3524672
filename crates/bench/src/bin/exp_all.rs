//! Registry-driven experiment runner: every experiment registered in
//! [`pcelisp::experiments::registry`] (with the A1/A2 ablations inside
//! E5/E3) in one command — the list below, `--only` validation, and the
//! run order all derive from the registry, never from a hand-kept list.
//!
//! ```sh
//! exp_all                      # run the whole registry, print tables
//! exp_all --only e2,e5         # a subset, in registry order
//! exp_all --json out.json      # also write the typed JSON report
//! exp_all --seed 7             # override the seed (default 1; reaches e6, e9, e11, e12 only)
//! exp_all --jobs 4             # worker threads per sweep (0 = auto)
//! exp_all --list               # list registered experiments and exit
//! ```
//!
//! Reports are byte-identical at every `--jobs` value (DESIGN.md §8);
//! the knob only changes wall-clock. The process exits non-zero when
//! any selected experiment produces an incomplete report (missing or
//! empty sections) — the CI smoke gate.

use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    json: Option<String>,
    only: Option<Vec<String>>,
    seed: u64,
    jobs: usize,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: None,
        only: None,
        seed: 1,
        jobs: 0,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a file path")?);
            }
            "--only" => {
                let list = it.next().ok_or("--only needs a comma-separated list")?;
                args.only = Some(
                    list.split(',')
                        .map(|s| s.trim().to_lowercase())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a worker count (0 = auto)")?;
                args.jobs = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
            }
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_all: {e}");
            eprintln!(
                "usage: exp_all [--json out.json] [--only e2,e5] [--seed N] [--jobs N] [--list]"
            );
            return ExitCode::FAILURE;
        }
    };

    let registry = pcelisp::experiments::registry();
    if args.list {
        for exp in &registry {
            println!("{:4}  {}", exp.name(), exp.title());
        }
        return ExitCode::SUCCESS;
    }

    // Names match case-insensitively (`--only E10` works); any unknown
    // name — or a selection that matches nothing at all — fails loudly
    // with the valid names instead of silently running zero experiments.
    if let Some(only) = &args.only {
        let known: Vec<&str> = registry.iter().map(|e| e.name()).collect();
        for name in only {
            if !known.iter().any(|k| k.eq_ignore_ascii_case(name)) {
                eprintln!("exp_all: unknown experiment {name:?} (have: {known:?})");
                return ExitCode::FAILURE;
            }
        }
        if only.is_empty() {
            eprintln!("exp_all: --only selected no experiments (have: {known:?})");
            return ExitCode::FAILURE;
        }
    }

    let seed = args.seed;
    let selected: Vec<_> = registry
        .into_iter()
        .filter(|e| {
            args.only
                .as_ref()
                .map(|only| only.iter().any(|n| n.eq_ignore_ascii_case(e.name())))
                .unwrap_or(true)
        })
        .collect();

    let mut reports = Vec::new();
    let mut incomplete = Vec::new();
    for (i, exp) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let report = exp.run(seed, args.jobs);
        report.print();
        if !report.is_complete() {
            incomplete.push(report.name.clone());
        }
        reports.push(report);
    }

    if let Some(path) = &args.json {
        let mut out = String::new();
        let _ = write!(out, "{{\"seed\":{seed},\"experiments\":[");
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out.push('\n');
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("exp_all: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("wrote {} experiment reports to {path}", reports.len());
    }

    if !incomplete.is_empty() {
        eprintln!("exp_all: incomplete reports (missing/empty sections): {incomplete:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
