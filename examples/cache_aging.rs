//! Map-cache aging (the paper's §1 weakness: "the mapping has aged out,
//! or … was never requested before"): hit ratio versus TTL and workload
//! skew for vanilla LISP, with the PCE control plane alongside (it never
//! takes a data-driven miss).
//!
//! ```sh
//! cargo run --release --example cache_aging
//! ```

use pcelisp::experiments::Experiment;

fn main() {
    let report = pcelisp::experiments::e6_cache::grid().run(3, 0);
    report.print();
    println!();
    println!(
        "Short TTLs age mappings out mid-workload (expirations > 0) and every\n\
         cold or expired destination costs a resolution round trip; skewed\n\
         (Zipf) popularity keeps hot destinations cached. The PCE rows show\n\
         zero affected packets regardless of TTL."
    );
}
