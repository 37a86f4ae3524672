//! Integration: the full Fig. 1 message sequence across every crate —
//! wire formats, DES engine, routers, DNS hierarchy, xTRs, PCEs.

use pcelisp::experiments::e1_fig1::run_fig1_trace;
use pcelisp::experiments::e7_reverse::run_reverse;
use pcelisp::experiments::Value;

#[test]
fn fig1_steps_in_paper_order_with_no_drops() {
    let r = run_fig1_trace(0);
    let rows = &r.section.rows;
    // The eight labelled steps appear in order, then the three checks:
    // the mapping precedes the DNS answer, no drops, TCP established.
    assert_eq!(rows.len(), 11);
    assert!(rows[0][0].text.starts_with("1:"));
    assert!(rows[7][0].text.starts_with("8:"));
    for row in &rows[8..] {
        assert_eq!(
            row[1].value,
            Value::Bool(true),
            "{}\n{}",
            row[0].text,
            r.trace
        );
    }
}

#[test]
fn reverse_mapping_completes_two_way_resolution() {
    let s = run_reverse(4, 7);
    assert_eq!(s.rows[5][0].text, "reverse entries complete");
    assert_eq!(s.rows[5][1].value, Value::Bool(true));
    assert!(s.num(6, "t_ms").unwrap() >= 4.0, "PCE db entries: {s:?}");
    // The database update lands after the first decapsulation.
    assert!(s.num(3, "t_ms").unwrap() >= s.num(0, "t_ms").unwrap());
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
