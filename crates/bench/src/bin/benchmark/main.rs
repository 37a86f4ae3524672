//! The repo benchmark (`BENCHMARK.json`): five workloads, four
//! drift-normalised end-to-end metrics and an outside-in layer ledger.
//! See `README.md` beside this file for the glossary, the interaction
//! table and the product API surface the benchmark pins.
//!
//! ```text
//! benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out file.json]
//! benchmark list
//! benchmark compare <set-A files…> -- <set-B files…>
//! benchmark reference --write [path]
//! ```
//!
//! It imports only the product crates, never `pcelisp_bench`, and times
//! calls into their public functions from outside.

mod alloc;
mod calib;
mod catalog;
mod cells;
mod compare;
mod host;
mod json;
mod run;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where `reference --write` puts the file, relative to the repo root.
const REFERENCE_PATH: &str = "crates/bench/src/bin/benchmark/reference.json";

const USAGE: &str = "usage: benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out file.json]
       benchmark list
       benchmark compare <set-A files...> -- <set-B files...>
       benchmark reference --write [path]";

fn parse_run(args: &[String]) -> Result<run::RunArgs, String> {
    let mut parsed = run::RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&parsed.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(parsed)
}

fn list() {
    println!("workloads (closed loop, one client; `registry_jobs` uses 2 threads, the rest 1):");
    for w in &catalog::WORKLOADS {
        println!("  {:<17} {}", w.name, w.why);
    }
    println!(
        "\nend-to-end metrics (tracing off; bound = share of the base median it may worsen by):"
    );
    for d in catalog::end_to_end() {
        println!(
            "  {:<12} {:<6} {} is better, bound {:.2}: {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0),
            d.meaning
        );
    }
    println!(
        "  {:<12} {:<6} lower is better, bound any increase: failed / attempted operations of the result line",
        "failed_share", "ratio"
    );
    println!("\nper-layer metrics (traced run, --trace 1):");
    for d in catalog::per_layer() {
        println!(
            "  {:<44} {:<6} {} is better: {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.meaning
        );
    }
}

/// Regenerate the pinned digests and counts from the current code.
fn write_reference(path: &str) -> Result<(), String> {
    let mut workloads = Vec::new();
    for w in &catalog::WORKLOADS {
        let kind = workloads::Kind::from_name(w.name).expect("catalog names are known");
        if kind.serial() != kind {
            continue; // answers to another workload's entry
        }
        let mut seeds = Vec::new();
        for seed in run::PINNED_SEEDS {
            let inputs = workloads::generate(kind, seed, false);
            let ops: Vec<String> = workloads::run_iteration(&inputs, &mut span::Tracer::off())
                .iter()
                .map(|o| format!("      {}", run::RefOp::of(o).to_json()))
                .collect();
            seeds.push(format!("    \"{seed}\": [\n{}\n    ]", ops.join(",\n")));
        }
        workloads.push(format!("  \"{}\": {{\n{}\n  }}", w.name, seeds.join(",\n")));
    }
    std::fs::write(path, format!("{{\n{}\n}}\n", workloads.join(",\n")))
        .map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String], started: Instant) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("compare") => {
            let mut sets = args[1..].split(|a| a == "--");
            match (sets.next(), sets.next(), sets.next()) {
                (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => {
                    compare::compare(a, b).map(|worse| worse == 0)
                }
                _ => Err(USAGE.to_string()),
            }
        }
        Some("reference") => match &args[1..] {
            [flag] if flag == "--write" => write_reference(REFERENCE_PATH).map(|()| true),
            [flag, path] if flag == "--write" => write_reference(path).map(|()| true),
            _ => Err(USAGE.to_string()),
        },
        Some("run") => run::run(&parse_run(&args[1..])?, started),
        _ => run::run(&parse_run(args)?, started),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed operation or a `worse` row: the result was printed.
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
