//! JSON fixed point: the FNV-64 digest of every registry experiment's
//! `to_json()` at seeds 1, 2 and 3, pinned in `tests/report_digests.txt`
//! (one `name seed digest` line per report). The goldens pin seed 1's
//! tables; this pins the typed JSON `exp_all --json` writes at three
//! seeds, at `jobs = 1` and at `jobs = 2`, so a refactor of the
//! experiment layer must leave every report byte-identical.
//!
//! Regenerate (only when an intentional behaviour change is being made)
//! with `UPDATE_GOLDEN=1 cargo test --test report_digests`.

use pcelisp::experiments::registry;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [1, 2, 3];

fn digests(jobs: usize) -> String {
    let mut out = String::new();
    for exp in registry() {
        for seed in SEEDS {
            let json = exp.run(seed, jobs).to_json();
            let digest = netsim::trace::fnv64(json.as_bytes());
            let _ = writeln!(out, "{} {seed} {digest:016x}", exp.name());
        }
    }
    out
}

#[test]
fn report_json_is_pinned_at_seeds_1_to_3_and_jobs_1_and_2() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/report_digests.txt");
    let serial = digests(1);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &serial).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing digest file {}: {e}", path.display()));
    assert_eq!(serial, want, "a report's JSON drifted at jobs = 1");
    assert_eq!(digests(2), want, "a report's JSON drifted at jobs = 2");
}
