//! Traffic engineering with two providers per domain (paper claim C3):
//! inbound byte distribution under the PCE control plane's per-flow
//! `RLOC_S`/`RLOC_D` selection vs. the symmetric vanilla baseline, plus
//! the A1 ablation (mid-flow egress move with/without mappings
//! pre-installed at every ITR).
//!
//! ```sh
//! cargo run --release --example te_multihoming
//! ```

use pcelisp::experiments::Experiment;

fn main() {
    // E5 carries both sections (inbound TE + the A1 ablation) in one
    // registry report.
    let report = pcelisp::experiments::e5_te::experiment().run(1, 0);
    report.print();
    println!();
    println!(
        "Vanilla LISP concentrates inbound traffic on the single registered\n\
         RLOC; the PCE control plane spreads flows across both providers of\n\
         each domain (upstream *and* downstream TE). Pushing the mapping to\n\
         ALL ITRs (step 7b) makes the mid-flow egress move lossless; pushing\n\
         to one ITR strands the moved flow."
    );
}
