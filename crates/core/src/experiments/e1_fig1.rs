//! **E1 — Fig. 1 message-sequence reproduction.**
//!
//! Runs one flow through the PCE control plane and verifies the exact
//! step ordering of the paper's figure: IPC (1), iterative DNS through
//! the PCE data path (2–5), encapsulation on port `P` (6), decapsulation
//! + forward + push (7a/7b), DNS answer at `E_S` (8) — and the headline
//!   property: *the mapping is installed at every ITR before the end-host
//!   receives its DNS answer*, so the first data packet finds state.

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::{FlowMode, TrafficHost};
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use crate::table::Table;
use netsim::Ns;

/// Result of the E1 run.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// The rendered trace.
    pub trace: String,
    /// Times of the ordered steps (step 1, 2–5, 6, 7a/7b, 8).
    pub step_times: Vec<(String, Ns)>,
    /// Mapping installed at all ITRs before the DNS answer reached `E_S`.
    pub installed_before_answer: bool,
    /// Zero packets dropped anywhere.
    pub no_drops: bool,
    /// TCP setup completed.
    pub established: bool,
}

impl Fig1Result {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "steps",
            "E1: Fig.1 step sequence (PCE control plane)",
            &["step", "t_ms"],
        );
        for (label, at) in &self.step_times {
            s.row(vec![Cell::str(label.clone()), Cell::f64(at.as_ms_f64(), 3)]);
        }
        s.row(vec![
            Cell::str("mapping installed before DNS answer"),
            Cell::bool(self.installed_before_answer),
        ]);
        s.row(vec![Cell::str("no drops"), Cell::bool(self.no_drops)]);
        s.row(vec![
            Cell::str("tcp established"),
            Cell::bool(self.established),
        ]);
        s
    }

    /// Summary table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Run the experiment.
pub fn run_fig1_trace(seed: u64) -> Fig1Result {
    let mut world = ScenarioSpec::fig1(CpKind::Pce)
        .with(|s| {
            s.set_flows(flow_script(
                &[Ns::ZERO],
                4,
                FlowMode::Tcp {
                    packets: 3,
                    interval: Ns::from_ms(1),
                    size: 200,
                },
            ));
        })
        .build(1 + seed);
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
    let times = world
        .sim
        .trace
        .assert_order(&needles.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    let step_times: Vec<(String, Ns)> = needles
        .iter()
        .zip(&times)
        .map(|((_, label), &t)| (label.to_string(), t))
        .collect();

    // Install times at both ITRs vs. the answer time at E_S.
    let answer_t = world
        .sim
        .trace
        .time_of("step8: E_S")
        .expect("answer traced");
    let installs: Vec<Ns> = world
        .sim
        .trace
        .find("installed flow 100.0.0.5")
        .iter()
        .map(|e| e.t)
        .take(2)
        .collect();
    let installed_before_answer = installs.len() >= 2 && installs.iter().all(|&t| t <= answer_t);

    let no_drops = world.total_miss_drops() == 0
        && world.sim.total_queue_drops() == 0
        && world.sim.total_fault_drops() == 0;
    let established = world
        .sim
        .node_ref::<TrafficHost>(world.client().host)
        .records[0]
        .t_established
        .is_some();

    Fig1Result {
        trace: world.sim.trace.render(),
        step_times,
        installed_before_answer,
        no_drops,
        established,
    }
}

/// The registry entry for E1.
pub struct E1Fig1;

impl crate::experiments::Experiment for E1Fig1 {
    fn name(&self) -> &'static str {
        "e1"
    }
    fn title(&self) -> &'static str {
        "Fig.1 step-sequence reproduction (PCE control plane)"
    }
    fn run(&self, seed: u64, _jobs: usize) -> ExpReport {
        // A single cell: nothing to fan out.
        ExpReport::new(self.name(), self.title()).with_section(run_fig1_trace(seed).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_sequence_holds() {
        let r = run_fig1_trace(0);
        assert!(r.installed_before_answer, "trace:\n{}", r.trace);
        assert!(r.no_drops);
        assert!(r.established);
        assert_eq!(r.step_times.len(), 8);
        // Steps are in non-decreasing time order.
        assert!(r.step_times.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn fig1_deterministic() {
        let a = run_fig1_trace(0);
        let b = run_fig1_trace(0);
        assert_eq!(a.trace, b.trace);
    }
}
