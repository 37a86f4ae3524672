//! **E4 — TCP connection-establishment latency (the §1 equations).**
//!
//! Measures, per control plane, the full time from the DNS query to TCP
//! establishment at the client and checks it against the paper's closed
//! forms:
//!
//! * today (no LISP):  `T_DNS + 2·OWD(ES,ED)` at the client
//!   (the third leg — the final ACK — lands at the server);
//! * vanilla LISP:     `T_DNS + T_map + 2·OWD` (with queueing; with the
//!   drop policy the handshake simply fails — reported as such);
//! * PCE control plane: `T_DNS + 2·OWD`, i.e. indistinguishable from
//!   today's Internet.

use crate::experiments::{cross, fig1_one_flow, run, Cell, Grid, Horizon, OWD_SWEEP, QUEUE};
use crate::hosts::FlowMode;
use crate::scenario::CpKind;
use crate::spec::ScenarioSpec;
use netsim::Ns;

/// How long every E4 cell runs.
pub const HORIZON: Horizon = Horizon::At(Ns::from_secs(60));

/// The variants compared (LISP-queue stands in for "vanilla that
/// eventually succeeds"; LISP-drop shows the failure mode).
pub const VARIANTS: [CpKind; 7] = [
    CpKind::NoLisp,
    CpKind::LispDrop,
    CpKind::LispQueue,
    CpKind::Alt { hops: 4 },
    CpKind::Cons { cdr_depth: 1 },
    CpKind::Nerd,
    CpKind::Pce,
];

/// One (cp, owd) cell: one short TCP flow. Every pull plane but
/// lisp-drop queues (ALT and CONS need it to complete the handshake at
/// all).
pub fn spec(cp: CpKind, owd: Ns) -> ScenarioSpec {
    let mode = FlowMode::Tcp {
        packets: 2,
        interval: Ns::from_ms(1),
        size: 200,
    };
    fig1_one_flow(cp, mode).with(|s| {
        s.set_provider_owd(owd);
        s.pull_miss_policy = (cp != CpKind::LispDrop).then_some(QUEUE);
    })
}

/// E4: every plane at every [`crate::experiments::OWD_SWEEP`] delay.
pub fn grid() -> Grid<(CpKind, Ns)> {
    Grid {
        name: "e4",
        title: "TCP connection-establishment latency",
        key: "setup",
        heading: "E4: TCP connection establishment (client-side), per control plane",
        columns: &["cp", "owd_ms", "t_dns_ms", "t_setup_ms", "handshake_ms"],
        cells: cross(&OWD_SWEEP, &VARIANTS),
        row: |&(cp, owd), seed| {
            let flow = &run(&spec(cp, owd), seed, HORIZON).flows[0];
            let t_dns = flow.dns_time().map_or(f64::NAN, |t| t.as_ms_f64());
            // `None` when the handshake never completed (the drop
            // policy losing the SYN).
            let t_setup = flow.setup_time().map(|t| t.as_ms_f64());
            vec![
                Cell::str(cp.label()),
                Cell::u64(owd.as_ms()),
                Cell::f64(t_dns, 1),
                Cell::opt_f64(t_setup, 1, "FAILED"),
                Cell::opt_f64(t_setup.map(|s| s - t_dns), 1, "-"),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::FlowRecord;

    fn cell(cp: CpKind, owd_ms: u64) -> FlowRecord {
        run(&spec(cp, Ns::from_ms(owd_ms)), 1, HORIZON).flows[0].clone()
    }

    /// `T_setup − T_DNS` (ms): the handshake part of the setup.
    fn handshake_ms(f: &FlowRecord) -> f64 {
        (f.setup_time().unwrap() - f.dns_time().unwrap()).as_ms_f64()
    }

    #[test]
    fn pce_matches_no_lisp() {
        let b = cell(CpKind::NoLisp, 30)
            .setup_time()
            .expect("no-lisp establishes");
        let p = cell(CpKind::Pce, 30).setup_time().expect("pce establishes");
        // Within a couple of PCE forwarding bumps.
        let (b, p) = (b.as_ms_f64(), p.as_ms_f64());
        assert!((p - b).abs() < 10.0, "pce {p} vs no-lisp {b}");
    }

    #[test]
    fn queue_pays_tmap_on_handshake() {
        let b = handshake_ms(&cell(CpKind::NoLisp, 30));
        let v = handshake_ms(&cell(CpKind::LispQueue, 30));
        // T_map ≈ an MR 3-leg round: clearly > 50 ms extra.
        assert!(v > b + 50.0, "queue handshake {v} vs base {b}");
    }

    #[test]
    fn drop_policy_fails_handshake() {
        let d = cell(CpKind::LispDrop, 30);
        assert!(d.setup_time().is_none(), "{d:?}");
        assert!(d.dns_time().unwrap() > Ns::ZERO);
    }

    #[test]
    fn handshake_scales_with_owd_for_pce() {
        let hn = handshake_ms(&cell(CpKind::Pce, 15));
        let hf = handshake_ms(&cell(CpKind::Pce, 100));
        // 2 OWD across two provider legs each way: ≈ 4×delta = 340 ms.
        assert!(hf - hn > 300.0, "near {hn} far {hf}");
        assert!(hf - hn < 380.0, "near {hn} far {hf}");
    }
}
