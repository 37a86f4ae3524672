//! **E1 — Fig. 1 message-sequence reproduction.**
//!
//! Runs one flow through the PCE control plane and verifies the exact
//! step ordering of the paper's figure: IPC (1), iterative DNS through
//! the PCE data path (2–5), encapsulation on port `P` (6), decapsulation
//! + forward + push (7a/7b), DNS answer at `E_S` (8) — and the headline
//!   property: *the mapping is installed at every ITR before the end-host
//!   receives its DNS answer*, so the first data packet finds state.

use crate::experiments::{fig1_one_flow, Cell, Section, Sections};
use crate::hosts::FlowMode;
use crate::scenario::CpKind;
use netsim::Ns;

/// One E1 run: the rendered trace and the step table read out of it.
#[derive(Debug, Clone)]
pub struct Fig1Run {
    /// The rendered trace.
    pub trace: String,
    /// The eight ordered steps (step 1, 2–5, 6, 7a/7b, 8) with their
    /// times, then three checks: mapping installed at every ITR before
    /// the DNS answer reached `E_S`, no drops anywhere, TCP established.
    pub section: Section,
}

/// Run the experiment.
pub fn run_fig1_trace(seed: u64) -> Fig1Run {
    let mode = FlowMode::Tcp {
        packets: 3,
        interval: Ns::from_ms(1),
        size: 200,
    };
    let mut world = fig1_one_flow(CpKind::Pce, mode).build(1 + seed);
    world.sim.trace.enable();
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(10));

    let needles: &[(&str, &str)] = &[
        ("resolver IPC notice to PCE", "1: IPC E_S -> PCE_S"),
        ("resolver asks 8.0.0.53", "2: iterative query (root)"),
        ("resolver asks 9.0.0.53", "3-4: iterative query (TLD)"),
        ("resolver asks 12.0.0.53", "5: iterative query (DNS_D)"),
        ("step6: PCE_D", "6: PCE_D encapsulates on port P"),
        ("step7a: PCE_S", "7a: PCE_S forwards DNS answer"),
        ("step7b: PCE_S", "7b: PCE_S pushes mapping to ITRs"),
        ("step8: E_S", "8: DNS answer at E_S"),
    ];
    let trace = &world.sim.trace;
    let times = trace.assert_order(&needles.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    let mut s = Section::new(
        "steps",
        "E1: Fig.1 step sequence (PCE control plane)",
        &["step", "t_ms"],
    );
    for ((_, label), t) in needles.iter().zip(&times) {
        s.row(vec![Cell::str(*label), Cell::f64(t.as_ms_f64(), 3)]);
    }

    // Install times at both ITRs vs. the answer time at E_S.
    let answer_t = trace.time_of("step8: E_S").expect("answer traced");
    let installs: Vec<Ns> = trace
        .find("installed flow 100.0.0.5")
        .iter()
        .map(|e| e.t)
        .take(2)
        .collect();
    let installed_before_answer = installs.len() >= 2 && installs.iter().all(|&t| t <= answer_t);
    let no_drops = world.total_miss_drops() == 0
        && world.sim.total_queue_drops() == 0
        && world.sim.total_fault_drops() == 0;
    let established = world.records()[0].t_established.is_some();
    for (label, ok) in [
        (
            "mapping installed before DNS answer",
            installed_before_answer,
        ),
        ("no drops", no_drops),
        ("tcp established", established),
    ] {
        s.row(vec![Cell::str(label), Cell::bool(ok)]);
    }
    Fig1Run {
        trace: trace.render(),
        section: s,
    }
}

/// The registry entry for E1: one world, nothing to fan out.
pub fn experiment() -> Sections {
    Sections {
        name: "e1",
        title: "Fig.1 step-sequence reproduction (PCE control plane)",
        run: |seed, _jobs| vec![run_fig1_trace(seed).section],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Value;

    #[test]
    fn fig1_sequence_holds() {
        let r = run_fig1_trace(0);
        let rows = &r.section.rows;
        assert_eq!(rows.len(), 11);
        // The three checks: installed before answer, no drops, established.
        for row in &rows[8..] {
            assert_eq!(
                row[1].value,
                Value::Bool(true),
                "{}\n{}",
                row[0].text,
                r.trace
            );
        }
        // Steps are in non-decreasing time order.
        let t: Vec<f64> = (0..8).map(|i| r.section.num(i, "t_ms").unwrap()).collect();
        assert!(t.windows(2).all(|w| w[0] <= w[1]), "{t:?}");
    }

    #[test]
    fn fig1_deterministic() {
        let a = run_fig1_trace(0);
        let b = run_fig1_trace(0);
        assert_eq!(a.trace, b.trace);
    }
}
