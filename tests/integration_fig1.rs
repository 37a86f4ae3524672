//! Integration: the full Fig. 1 message sequence across every crate —
//! wire formats, DES engine, routers, DNS hierarchy, xTRs, PCEs.

use pcelisp::experiments::e1_fig1::run_fig1_trace;
use pcelisp::experiments::e7_reverse::run_reverse;

#[test]
fn fig1_steps_in_paper_order_with_no_drops() {
    let r = run_fig1_trace(0);
    assert!(
        r.installed_before_answer,
        "mapping must precede the DNS answer\n{}",
        r.trace
    );
    assert!(r.no_drops);
    assert!(r.established);
    // The eight labelled steps appear in order.
    let labels: Vec<&str> = r.step_times.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels.len(), 8);
    assert!(labels[0].starts_with("1:"));
    assert!(labels[7].starts_with("8:"));
}

#[test]
fn reverse_mapping_completes_two_way_resolution() {
    let r = run_reverse(4, 7);
    assert!(r.reverse_entries_complete);
    assert!(r.db_entries >= 4);
    assert!(r.t_db_update >= r.t_first_decap);
}

#[test]
fn fig1_trace_strings_are_pinned() {
    // `Ctx::trace` formats lazily (netsim::Ctx::trace); the strings it
    // records when tracing is on must stay byte-identical — E1's step
    // table is read out of them. Pinned at the eager-`format!` parent.
    let r = run_fig1_trace(0);
    assert_eq!(r.trace.lines().count(), 36);
    assert_eq!(
        netsim::trace::fnv64(r.trace.as_bytes()),
        0xde97_c6da_2e28_04ac
    );
}
