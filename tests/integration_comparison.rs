//! Integration: the cross-control-plane comparisons keep the paper's
//! qualitative shape (who wins, and roughly by how much).

use netsim::Ns;
use pcelisp::experiments::{e2_drops, e3_resolution, e4_tcp_setup, run, RunRecord};
use pcelisp::scenario::CpKind;

fn drops(cp: CpKind, owd: Ns) -> RunRecord {
    run(&e2_drops::spec(cp, owd), 5, e2_drops::HORIZON)
}

/// `(T_DNS, T_map_eff)` in ms.
fn resolution(cp: CpKind, owd: Ns) -> (f64, f64) {
    let r = run(&e3_resolution::spec(cp, owd), 5, e3_resolution::HORIZON);
    e3_resolution::timings(&r)
}

/// DNS query to TCP establishment, in ms.
fn setup_ms(cp: CpKind, owd: Ns) -> f64 {
    let r = run(&e4_tcp_setup::spec(cp, owd), 5, e4_tcp_setup::HORIZON);
    r.flows[0].setup_time().expect("establishes").as_ms_f64()
}

#[test]
fn e2_shape_pce_zero_vanilla_loses() {
    let owd = Ns::from_ms(30);
    let pce = drops(CpKind::Pce, owd);
    let nerd = drops(CpKind::Nerd, owd);
    let drop = drops(CpKind::LispDrop, owd);
    let alt = drops(CpKind::Alt { hops: 4 }, owd);
    assert_eq!(pce.miss_drops + pce.queued, 0);
    assert_eq!(nerd.miss_drops + nerd.queued, 0);
    assert!(drop.miss_drops > 0);
    assert!(alt.miss_drops >= drop.miss_drops);
    assert_eq!(pce.delivered, pce.sent());
}

#[test]
fn e3_shape_ratio_one_for_pce_grows_with_overlay_depth() {
    let owd = Ns::from_ms(30);
    let (_, pce) = resolution(CpKind::Pce, owd);
    let (_, mrms) = resolution(CpKind::LispDrop, owd);
    let (_, alt4) = resolution(CpKind::Alt { hops: 4 }, owd);
    let (_, alt8) = resolution(CpKind::Alt { hops: 8 }, owd);
    // (T_DNS + T_map_eff) / T_DNS is 1 exactly when T_map_eff is 0.
    assert_eq!(pce, 0.0);
    assert!(mrms > 0.0);
    assert!(alt4 > mrms);
    assert!(alt8 > alt4);
}

#[test]
fn e4_shape_pce_matches_todays_internet() {
    let owd = Ns::from_ms(60);
    let b = setup_ms(CpKind::NoLisp, owd);
    let p = setup_ms(CpKind::Pce, owd);
    let q = setup_ms(CpKind::LispQueue, owd);
    assert!((p - b).abs() < 10.0, "pce {p} vs base {b}");
    assert!(q > p + 50.0, "queue {q} must pay T_map over pce {p}");
}
