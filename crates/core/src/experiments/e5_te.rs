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

use crate::experiments::{fig1_one_flow, Cell, Grid, RunRecord, Section, Sections};
use crate::hosts::{FlowMode, ServerHost};
use crate::scenario::{flow_script, CpKind, FlowRouter};
use crate::spec::{ScenarioSpec, World};
use ircte::Imbalance;
use netsim::Ns;

/// The E5 world for one plane: `n_flows` echoed UDP flows, 400 ms apart,
/// over eight destination hosts, run for 120 s.
pub fn run_te(cp: CpKind, n_flows: usize, seed: u64) -> World {
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
    world
}

/// Imbalance of a site's inbound split over its two providers
/// (normalised utilisations).
pub fn imbalance(world: &World, site: &str) -> Imbalance {
    let b = world.provider_inbound_bytes(site);
    let total = (b[0] + b[1]).max(1) as f64;
    Imbalance::of(&[b[0] as f64 / total, b[1] as f64 / total])
}

/// The E5 grid: inbound bytes per provider of S and D, per plane.
pub fn grid() -> Grid<CpKind> {
    Grid {
        name: "e5",
        title: TITLE,
        key: "inbound_te",
        heading: "E5: inbound TE — per-provider inbound bytes (flows with echo traffic)",
        columns: &[
            "cp",
            "in_S_A",
            "in_S_B",
            "in_D_X",
            "in_D_Y",
            "max_util_D",
            "stddev_D",
        ],
        cells: vec![CpKind::LispQueue, CpKind::Nerd, CpKind::Pce],
        row: |&cp, seed| {
            let world = run_te(cp, 12, seed);
            let (s, d) = (
                world.provider_inbound_bytes("S"),
                world.provider_inbound_bytes("D"),
            );
            let imb = imbalance(&world, "D");
            vec![
                Cell::str(cp.label()),
                Cell::u64(s[0]),
                Cell::u64(s[1]),
                Cell::u64(d[0]),
                Cell::u64(d[1]),
                Cell::f64(imb.max, 3),
                Cell::f64(imb.stddev, 3),
            ]
        },
    }
}

/// **Ablation A1**: one PCE flow whose egress moves from xTR-A to xTR-B
/// at 600 ms, with the mapping pushed to every ITR (`push_all`, the
/// paper) or to one.
pub fn run_ablation_push(push_all: bool, seed: u64) -> RunRecord {
    let mode = FlowMode::Udp {
        packets: 60,
        interval: Ns::from_ms(10),
        size: 400,
    };
    let mut world = fig1_one_flow(CpKind::Pce, mode)
        .with(|s| s.pce_push_all = push_all)
        .build(seed);
    world.schedule_all_flows();
    // Let the flow resolve and stream for a while via xTR-A.
    world.sim.run_until(Ns::from_ms(600));
    // TE action: move the flow's egress to xTR-B.
    let dest = world.records()[0].dest;
    let site = world.site("S");
    let (host, router, port_b) = (
        site.host_addr,
        site.router,
        site.egress_ports.get(1).copied(),
    );
    if let (Some(dest), Some(port_b)) = (dest, port_b) {
        world
            .sim
            .node_mut::<FlowRouter>(router)
            .pin_flow(host, dest, port_b);
    }
    world.sim.run_until(Ns::from_secs(60));
    RunRecord::of(&world)
}

/// The A1 ablation as a section.
pub fn ablation_push(seed: u64) -> Section {
    let mut s = Section::new(
        "ablation_push",
        "A1: mid-flow egress move — push-to-all-ITRs vs push-to-one",
        &["variant", "sent", "delivered", "miss_drops"],
    );
    for (label, push_all) in [("push-all (paper)", true), ("push-one (ablated)", false)] {
        let r = run_ablation_push(push_all, seed);
        s.row(vec![
            Cell::str(label),
            Cell::u64(r.sent()),
            Cell::u64(r.delivered),
            Cell::u64(r.miss_drops),
        ]);
    }
    s
}

const TITLE: &str = "Inbound traffic-engineering flexibility";

/// The registry entry for E5: the grid plus the A1 ablation.
pub fn experiment() -> Sections {
    Sections {
        name: "e5",
        title: TITLE,
        run: |seed, jobs| vec![grid().section(seed, jobs), ablation_push(seed)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_spreads_inbound_at_d() {
        let pce = run_te(CpKind::Pce, 8, 1);
        let d = pce.provider_inbound_bytes("D");
        // Both D providers carry real traffic.
        assert!(d[0] > 0 && d[1] > 0, "{d:?}");
        // No provider carries more than ~80% of inbound.
        assert!(imbalance(&pce, "D").max < 0.8, "{d:?}");
    }

    #[test]
    fn vanilla_concentrates_inbound_at_d() {
        let d = run_te(CpKind::LispQueue, 8, 1).provider_inbound_bytes("D");
        // All inbound data lands on the registered RLOC (provider X);
        // provider Y sees only control-plane noise.
        assert!(d[0] > d[1] * 5, "X {} vs Y {}", d[0], d[1]);
    }

    #[test]
    fn pce_beats_vanilla_on_balance() {
        let v = run_te(CpKind::LispQueue, 8, 1);
        let p = run_te(CpKind::Pce, 8, 1);
        for site in ["D", "S"] {
            let (pi, vi) = (imbalance(&p, site), imbalance(&v, site));
            assert!(pi.max < vi.max, "{site}: pce {pi:?} vanilla {vi:?}");
        }
    }

    #[test]
    fn ablation_push_all_lossless_move() {
        let all = run_ablation_push(true, 1);
        assert_eq!(all.miss_drops, 0, "{all:?}");
        assert_eq!(all.delivered, all.sent(), "{all:?}");
        let one = run_ablation_push(false, 1);
        assert!(
            one.miss_drops > 0,
            "push-one must strand the moved flow: {one:?}"
        );
    }
}
