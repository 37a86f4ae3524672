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

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::experiments::sweep::Sweep;
use crate::hosts::FlowMode;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use crate::table::Table;
use lispdp::MissPolicy;
use netsim::Ns;

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct SetupRow {
    /// Control plane label.
    pub cp: String,
    /// Provider OWD (ms).
    pub owd_ms: u64,
    /// Measured `T_DNS` (ms).
    pub t_dns_ms: f64,
    /// Measured total setup (ms); `None` when the handshake never
    /// completed (drop policy losing the SYN).
    pub t_setup_ms: Option<f64>,
    /// Handshake part: `t_setup - t_dns` (ms).
    pub handshake_ms: Option<f64>,
}

/// Result of the sweep.
#[derive(Debug, Clone, Default)]
pub struct SetupResult {
    /// All rows.
    pub rows: Vec<SetupRow>,
}

impl SetupResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "setup",
            "E4: TCP connection establishment (client-side), per control plane",
            &["cp", "owd_ms", "t_dns_ms", "t_setup_ms", "handshake_ms"],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::u64(r.owd_ms),
                Cell::f64(r.t_dns_ms, 1),
                Cell::opt_f64(r.t_setup_ms, 1, "FAILED"),
                Cell::opt_f64(r.handshake_ms, 1, "-"),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }

    /// Find a row.
    pub fn row(&self, cp: &str, owd_ms: u64) -> Option<&SetupRow> {
        self.rows.iter().find(|r| r.cp == cp && r.owd_ms == owd_ms)
    }
}

/// The variants compared (LISP-queue stands in for "vanilla that
/// eventually succeeds"; LISP-drop shows the failure mode).
pub fn e4_variants() -> Vec<CpKind> {
    vec![
        CpKind::NoLisp,
        CpKind::LispDrop,
        CpKind::LispQueue,
        CpKind::Alt { hops: 4 },
        CpKind::Cons { cdr_depth: 1 },
        CpKind::Nerd,
        CpKind::Pce,
    ]
}

/// Run one cell.
pub fn run_setup_cell(cp: CpKind, owd: Ns, seed: u64) -> SetupRow {
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_provider_owd(owd);
            s.set_flows(flow_script(
                &[Ns::ZERO],
                4,
                FlowMode::Tcp {
                    packets: 2,
                    interval: Ns::from_ms(1),
                    size: 200,
                },
            ));
        })
        .build(seed);
    // ALT/CONS need queueing to complete the handshake at all.
    if matches!(
        cp,
        CpKind::Alt { .. } | CpKind::Cons { .. } | CpKind::LispQueue
    ) {
        world.override_pull_miss_policy(MissPolicy::Queue { max_packets: 64 });
    }
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(60));

    let rec = world.records()[0].clone();
    let t_dns_ms = rec.dns_time().map(|t| t.as_ms_f64()).unwrap_or(f64::NAN);
    let t_setup_ms = rec.setup_time().map(|t| t.as_ms_f64());
    let handshake_ms = t_setup_ms.map(|s| s - t_dns_ms);
    SetupRow {
        cp: cp.label().into_owned(),
        owd_ms: owd.as_ms(),
        t_dns_ms,
        t_setup_ms,
        handshake_ms,
    }
}

/// Full sweep on up to `jobs` workers (`0` = auto).
pub fn run_tcp_setup_jobs(seed: u64, jobs: usize) -> SetupResult {
    let mut cells = Vec::new();
    for owd in crate::experiments::OWD_SWEEP {
        for cp in e4_variants() {
            cells.push((cp, owd));
        }
    }
    let rows = Sweep::new("e4", cells).run(
        jobs,
        |&(cp, owd)| format!("{}/owd={}ms", cp.label(), owd.as_ms()),
        |&(cp, owd)| run_setup_cell(cp, owd, seed),
    );
    SetupResult { rows }
}

/// Full sweep, serial.
pub fn run_tcp_setup(seed: u64) -> SetupResult {
    run_tcp_setup_jobs(seed, 1)
}

/// The registry entry for E4.
pub struct E4TcpSetup;

impl crate::experiments::Experiment for E4TcpSetup {
    fn name(&self) -> &'static str {
        "e4"
    }
    fn title(&self) -> &'static str {
        "TCP connection-establishment latency"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_tcp_setup_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_matches_no_lisp() {
        let base = run_setup_cell(CpKind::NoLisp, Ns::from_ms(30), 1);
        let pce = run_setup_cell(CpKind::Pce, Ns::from_ms(30), 1);
        let b = base.t_setup_ms.expect("no-lisp establishes");
        let p = pce.t_setup_ms.expect("pce establishes");
        // Within a couple of PCE forwarding bumps.
        assert!((p - b).abs() < 10.0, "pce {p} vs no-lisp {b}");
    }

    #[test]
    fn queue_pays_tmap_on_handshake() {
        let base = run_setup_cell(CpKind::NoLisp, Ns::from_ms(30), 1);
        let q = run_setup_cell(CpKind::LispQueue, Ns::from_ms(30), 1);
        let b = base.handshake_ms.unwrap();
        let v = q.handshake_ms.unwrap();
        // T_map ≈ an MR 3-leg round: clearly > 50 ms extra.
        assert!(v > b + 50.0, "queue handshake {v} vs base {b}");
    }

    #[test]
    fn drop_policy_fails_handshake() {
        let d = run_setup_cell(CpKind::LispDrop, Ns::from_ms(30), 1);
        assert!(d.t_setup_ms.is_none(), "{d:?}");
        assert!(d.t_dns_ms > 0.0);
    }

    #[test]
    fn handshake_scales_with_owd_for_pce() {
        let near = run_setup_cell(CpKind::Pce, Ns::from_ms(15), 1);
        let far = run_setup_cell(CpKind::Pce, Ns::from_ms(100), 1);
        let hn = near.handshake_ms.unwrap();
        let hf = far.handshake_ms.unwrap();
        // 2 OWD across two provider legs each way: ≈ 4×delta = 340 ms.
        assert!(hf - hn > 300.0, "near {hn} far {hf}");
        assert!(hf - hn < 380.0, "near {hn} far {hf}");
    }
}
