//! **E2 — packet loss and queueing during mapping resolution (claim C1).**
//!
//! A CBR UDP flow starts the instant the DNS answer arrives — the window
//! in which baseline LISP has no mapping yet. For every control plane and
//! a sweep of inter-domain one-way delays, measures packets sent,
//! delivered, dropped at the ITR, and queued.
//!
//! Expected shape: PCE and NERD lose/queue **nothing**; LISP-drop loses
//! ≈ `rate × T_map` packets, growing with OWD; LISP-queue delays the same
//! amount; the overlay control planes (ALT/CONS) lose more as their
//! resolution paths lengthen.

use crate::experiments::{cross, fig1_one_flow, run, Cell, Grid, Horizon, OWD_SWEEP};
use crate::hosts::FlowMode;
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use netsim::Ns;

/// How long every E2 cell runs.
pub const HORIZON: Horizon = Horizon::At(Ns::from_secs(60));

/// The control planes E2 compares.
pub const VARIANTS: [CpKind; 7] = [
    CpKind::LispDrop,
    CpKind::LispQueue,
    CpKind::LispDataCp,
    CpKind::Alt { hops: 4 },
    CpKind::Cons { cdr_depth: 1 },
    CpKind::Nerd,
    CpKind::Pce,
];

/// One (cp, owd) cell: 150 CBR packets 5 ms apart from the DNS answer.
pub fn spec(cp: CpKind, owd: Ns) -> ScenarioSpec {
    let mode = FlowMode::Udp {
        packets: 150,
        interval: Ns::from_ms(5),
        size: 400,
    };
    fig1_one_flow(cp, mode).with(|s| s.set_provider_owd(owd))
}

/// E2: every plane at every [`crate::experiments::OWD_SWEEP`] delay.
pub fn grid() -> Grid<(CpKind, Ns)> {
    Grid {
        name: "e2",
        title: "Packet loss/queueing during mapping resolution",
        key: "drops",
        heading: "E2: drops/queueing during mapping resolution (CBR UDP from DNS answer)",
        columns: &[
            "cp",
            "owd_ms",
            "sent",
            "delivered",
            "miss_drops",
            "queued",
            "mean_qdelay_ms",
        ],
        cells: cross(&OWD_SWEEP, &VARIANTS),
        row: |&(cp, owd), seed| {
            let r = run(&spec(cp, owd), seed, HORIZON);
            vec![
                Cell::str(cp.label()),
                Cell::u64(owd.as_ms()),
                Cell::u64(r.sent()),
                Cell::u64(r.delivered),
                Cell::u64(r.miss_drops),
                Cell::u64(r.queued),
                Cell::f64(r.mean_queue_delay_ms(), 1),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunRecord;

    fn cell(cp: CpKind, owd_ms: u64) -> RunRecord {
        run(&spec(cp, Ns::from_ms(owd_ms)), 1, HORIZON)
    }

    #[test]
    fn pce_and_nerd_lose_nothing() {
        for cp in [CpKind::Pce, CpKind::Nerd] {
            let r = cell(cp, 30);
            assert_eq!(r.miss_drops, 0, "{}", cp.label());
            assert_eq!(r.queued, 0, "{}", cp.label());
            assert_eq!(r.delivered, r.sent(), "{}", cp.label());
        }
    }

    #[test]
    fn lisp_drop_loses_resolution_window() {
        let r = cell(CpKind::LispDrop, 30);
        assert!(r.miss_drops > 0);
        assert_eq!(r.delivered + r.miss_drops, r.sent());
        // ≈ T_map / interval packets lost; T_map ≈ 3 legs × ~75 ms ≈ 200 ms
        // → tens of packets at 5 ms spacing, but bounded by the flow size.
        assert!(r.miss_drops >= 5, "drops {}", r.miss_drops);
    }

    #[test]
    fn lisp_queue_delays_instead() {
        let r = cell(CpKind::LispQueue, 30);
        assert_eq!(r.miss_drops, 0);
        assert!(r.queued > 0);
        assert_eq!(r.delivered, r.sent());
        assert!(r.mean_queue_delay_ms() > 10.0);
    }

    #[test]
    fn drops_grow_with_owd_for_lisp_drop() {
        let near = cell(CpKind::LispDrop, 15);
        let far = cell(CpKind::LispDrop, 100);
        assert!(
            far.miss_drops >= near.miss_drops,
            "near {} far {}",
            near.miss_drops,
            far.miss_drops
        );
    }

    #[test]
    fn overlay_cps_lose_more_than_mrms() {
        let mrms = cell(CpKind::LispDrop, 30);
        let alt = cell(CpKind::Alt { hops: 6 }, 30);
        assert!(
            alt.miss_drops >= mrms.miss_drops,
            "alt {} vs mrms {}",
            alt.miss_drops,
            mrms.miss_drops
        );
    }
}
