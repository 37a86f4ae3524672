//! Integration: the TE claims — independent one-way tunnels spread
//! inbound load; push-to-all-ITRs makes egress moves lossless.

use pcelisp::experiments::e5_te::{imbalance, run_ablation_push, run_te};
use pcelisp::scenario::CpKind;

#[test]
fn inbound_te_spreads_both_domains() {
    let pce = run_te(CpKind::Pce, 10, 11);
    for site in ["D", "S"] {
        let b = pce.provider_inbound_bytes(site);
        assert!(b[0] > 0 && b[1] > 0, "{site}: {b:?}");
    }
    let vanilla = run_te(CpKind::LispQueue, 10, 11);
    let (p, v) = (imbalance(&pce, "D"), imbalance(&vanilla, "D"));
    assert!(p.max < v.max, "pce {p:?} vanilla {v:?}");
}

#[test]
fn ablation_a1_push_all_is_lossless() {
    let all = run_ablation_push(true, 11);
    assert_eq!(all.miss_drops, 0, "{all:?}");
    assert_eq!(all.sent(), all.delivered, "{all:?}");
    let one = run_ablation_push(false, 11);
    assert!(one.miss_drops > 0, "{one:?}");
}
