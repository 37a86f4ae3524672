//! **E5 — traffic-engineering flexibility (claim C3) + ablation A1.**
//!
//! Many UDP flows with echo (return traffic) run from domain S to domain
//! D. The symmetric vanilla LISP baseline cannot steer inbound traffic:
//! every mapping points at one registered RLOC, and gleaning sends return
//! traffic back to the encapsulating ITR. The PCE control plane picks
//! `RLOC_S` (inbound to S) and `RLOC_D` (inbound to D) per flow with its
//! IRC engine, spreading load across both providers of each domain.
//!
//! Ablation **A1**: pushing mappings to *all* ITRs (paper default) makes
//! mid-flow egress moves lossless; pushing to only the first ITR strands
//! moved flows on a stateless border router.

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::experiments::sweep::Sweep;
use crate::hosts::{FlowMode, ServerHost};
use crate::scenario::{flow_script, CpKind, FlowRouter};
use crate::spec::ScenarioSpec;
use crate::table::Table;
use ircte::Imbalance;
use netsim::Ns;

/// One row: inbound byte distribution per domain.
#[derive(Debug, Clone)]
pub struct TeRow {
    /// Control plane label.
    pub cp: String,
    /// Inbound bytes into S via provider A / B.
    pub inbound_s: [u64; 2],
    /// Inbound bytes into D via provider X / Y.
    pub inbound_d: [u64; 2],
    /// Imbalance of the D-side inbound split (normalised utilisations).
    pub imbalance_d: Imbalance,
    /// Imbalance of the S-side inbound split.
    pub imbalance_s: Imbalance,
}

/// E5 result.
#[derive(Debug, Clone, Default)]
pub struct TeResult {
    /// Comparison rows.
    pub rows: Vec<TeRow>,
}

impl TeResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "inbound_te",
            "E5: inbound TE — per-provider inbound bytes (flows with echo traffic)",
            &[
                "cp",
                "in_S_A",
                "in_S_B",
                "in_D_X",
                "in_D_Y",
                "max_util_D",
                "stddev_D",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::u64(r.inbound_s[0]),
                Cell::u64(r.inbound_s[1]),
                Cell::u64(r.inbound_d[0]),
                Cell::u64(r.inbound_d[1]),
                Cell::f64(r.imbalance_d.max, 3),
                Cell::f64(r.imbalance_d.stddev, 3),
            ]);
        }
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Run one control plane's TE measurement.
pub fn run_te_cell(cp: CpKind, n_flows: usize, seed: u64) -> TeRow {
    let starts: Vec<Ns> = (0..n_flows).map(|i| Ns::from_ms(400 * i as u64)).collect();
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_dest_count(8);
            s.set_flows(flow_script(
                &starts,
                8,
                FlowMode::Udp {
                    packets: 20,
                    interval: Ns::from_ms(5),
                    size: 600,
                },
            ));
        })
        .build(seed);
    let host_d = world.site("D").host;
    world.sim.node_mut::<ServerHost>(host_d).echo_udp = true;
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(120));

    let in_s = world.provider_inbound_bytes("S");
    let in_d = world.provider_inbound_bytes("D");
    let inbound_s = [in_s[0], in_s[1]];
    let inbound_d = [in_d[0], in_d[1]];
    let norm = |pair: [u64; 2]| -> Imbalance {
        let total = (pair[0] + pair[1]).max(1) as f64;
        Imbalance::of(&[pair[0] as f64 / total, pair[1] as f64 / total])
    };
    TeRow {
        cp: cp.label().into_owned(),
        inbound_s,
        inbound_d,
        imbalance_d: norm(inbound_d),
        imbalance_s: norm(inbound_s),
    }
}

/// Full comparison on up to `jobs` workers (`0` = auto).
pub fn run_te_jobs(seed: u64, jobs: usize) -> TeResult {
    let cells = vec![CpKind::LispQueue, CpKind::Nerd, CpKind::Pce];
    let rows = Sweep::new("e5", cells).run(
        jobs,
        |cp| cp.label().into_owned(),
        |&cp| run_te_cell(cp, 12, seed),
    );
    TeResult { rows }
}

/// Full comparison, serial.
pub fn run_te(seed: u64) -> TeResult {
    run_te_jobs(seed, 1)
}

/// **Ablation A1** result: mid-flow egress move with/without mappings
/// pre-installed at every ITR.
#[derive(Debug, Clone)]
pub struct AblationPushResult {
    /// Packets sent / delivered / dropped with push-to-all (paper).
    pub push_all: (u64, u64, u64),
    /// Same with push-to-one.
    pub push_one: (u64, u64, u64),
}

impl AblationPushResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "ablation_push",
            "A1: mid-flow egress move — push-to-all-ITRs vs push-to-one",
            &["variant", "sent", "delivered", "miss_drops"],
        );
        s.row(vec![
            Cell::str("push-all (paper)"),
            Cell::u64(self.push_all.0),
            Cell::u64(self.push_all.1),
            Cell::u64(self.push_all.2),
        ]);
        s.row(vec![
            Cell::str("push-one (ablated)"),
            Cell::u64(self.push_one.0),
            Cell::u64(self.push_one.1),
            Cell::u64(self.push_one.2),
        ]);
        s
    }

    /// Render the table.
    pub fn table(&self) -> Table {
        self.section().table()
    }
}

/// Run the A1 ablation.
pub fn run_ablation_push(seed: u64) -> AblationPushResult {
    let run = |push_all: bool| -> (u64, u64, u64) {
        let mut world = ScenarioSpec::fig1(CpKind::Pce)
            .with(|s| {
                s.pce_push_all = push_all;
                s.set_flows(flow_script(
                    &[Ns::ZERO],
                    4,
                    FlowMode::Udp {
                        packets: 60,
                        interval: Ns::from_ms(10),
                        size: 400,
                    },
                ));
            })
            .build(seed);
        world.schedule_all_flows();
        // Let the flow resolve and stream for a while via xTR-A.
        world.sim.run_until(Ns::from_ms(600));
        // TE action: move the flow's egress to xTR-B.
        let dest = world.records()[0].dest;
        let (host_s_addr, site_s, port_b) = {
            let site = world.site("S");
            (
                site.host_addr,
                site.router,
                site.egress_ports.get(1).copied(),
            )
        };
        if let (Some(dest), Some(port_b)) = (dest, port_b) {
            world
                .sim
                .node_mut::<FlowRouter>(site_s)
                .pin_flow(host_s_addr, dest, port_b);
        }
        world.sim.run_until(Ns::from_secs(60));
        let rec = world.records()[0].clone();
        let delivered = world.server_udp_received();
        let drops = world.total_miss_drops();
        (u64::from(rec.data_sent), delivered, drops)
    };
    AblationPushResult {
        push_all: run(true),
        push_one: run(false),
    }
}

/// The registry entry for E5 (includes the A1 ablation section).
pub struct E5Te;

impl crate::experiments::Experiment for E5Te {
    fn name(&self) -> &'static str {
        "e5"
    }
    fn title(&self) -> &'static str {
        "Inbound traffic-engineering flexibility"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title())
            .with_section(run_te_jobs(seed, jobs).section())
            .with_section(run_ablation_push(seed).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_spreads_inbound_at_d() {
        let pce = run_te_cell(CpKind::Pce, 8, 1);
        // Both D providers carry real traffic.
        assert!(pce.inbound_d[0] > 0, "{pce:?}");
        assert!(pce.inbound_d[1] > 0, "{pce:?}");
        // No provider carries more than ~80% of inbound.
        assert!(pce.imbalance_d.max < 0.8, "{pce:?}");
    }

    #[test]
    fn vanilla_concentrates_inbound_at_d() {
        let v = run_te_cell(CpKind::LispQueue, 8, 1);
        // All inbound data lands on the registered RLOC (provider X);
        // provider Y sees only control-plane noise.
        assert!(
            v.inbound_d[0] > v.inbound_d[1] * 5,
            "X {} vs Y {}",
            v.inbound_d[0],
            v.inbound_d[1]
        );
    }

    #[test]
    fn pce_beats_vanilla_on_balance() {
        let v = run_te_cell(CpKind::LispQueue, 8, 1);
        let p = run_te_cell(CpKind::Pce, 8, 1);
        assert!(
            p.imbalance_d.max < v.imbalance_d.max,
            "pce {p:?} vanilla {v:?}"
        );
        assert!(
            p.imbalance_s.max < v.imbalance_s.max,
            "pce {p:?} vanilla {v:?}"
        );
    }

    #[test]
    fn ablation_push_all_lossless_move() {
        let r = run_ablation_push(1);
        let (sent_all, delivered_all, drops_all) = r.push_all;
        assert_eq!(drops_all, 0, "{r:?}");
        assert_eq!(delivered_all, sent_all, "{r:?}");
        let (_sent_one, _delivered_one, drops_one) = r.push_one;
        assert!(drops_one > 0, "push-one must strand the moved flow: {r:?}");
    }
}
