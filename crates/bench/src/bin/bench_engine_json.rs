//! Emit `BENCH_engine.json`: a machine-readable engine-throughput
//! record so the perf trajectory of `netsim::Sim` is tracked PR over
//! PR (DESIGN.md §5).
//!
//! Runs the same two cells as the Criterion `engine` group — the 20k
//! ping-pong and the 64-node star (>1M events) — several times each and
//! reports the best events/sec observed (best-of-N discards scheduler
//! noise; the engine is deterministic, so every run does identical
//! work).
//!
//! Usage: `cargo run --release --bin bench_engine_json [out_path]`
//! (default output: `BENCH_engine.json` in the current directory).

use pcelisp_bench::workloads::{run_ping_pong, run_star, run_star_wan, STAR_LEAVES, STAR_ROUNDS};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Repetitions per cell (override with `BENCH_JSON_REPS`).
fn reps() -> u32 {
    std::env::var("BENCH_JSON_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

struct CellResult {
    name: &'static str,
    events: u64,
    best_seconds: f64,
}

impl CellResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_seconds
    }
}

fn measure(name: &'static str, reps: u32, mut cell: impl FnMut() -> u64) -> CellResult {
    // One untimed warmup to page in code and the allocator.
    let events = cell();
    let mut best = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let got = cell();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(got, events, "non-deterministic event count in {name}");
        if secs < best {
            best = secs;
        }
    }
    let r = CellResult {
        name,
        events,
        best_seconds: best,
    };
    eprintln!(
        "{:<28} {:>9} events  best {:>9.3} ms  {:>12.0} events/s",
        r.name,
        r.events,
        r.best_seconds * 1e3,
        r.events_per_sec()
    );
    r
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let reps = reps();

    let results = [
        measure("ping_pong_20k", reps, || run_ping_pong(10_000)),
        measure("star64_1m", reps, || run_star(STAR_LEAVES, STAR_ROUNDS)),
        // The same star over 200 µs WAN links, so pushes reach the
        // calendar queue's rung.
        measure("star64_wan", reps, || {
            run_star_wan(STAR_LEAVES, STAR_ROUNDS / 4)
        }),
    ];

    let timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"engine\",\n");
    json.push_str(&format!("  \"timestamp_unix\": {timestamp},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"best_seconds\": {:.9}, \"events_per_sec\": {:.0}}}{}\n",
            r.name,
            r.events,
            r.best_seconds,
            r.events_per_sec(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
