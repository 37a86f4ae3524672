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

use crate::experiments::report::{Cell, ExpReport, Section};
use crate::experiments::sweep::Sweep;
use crate::hosts::FlowMode;
use crate::scenario::{flow_script, CpKind};
use crate::spec::ScenarioSpec;
use crate::table::Table;
use lispdp::Xtr;
use netsim::Ns;

/// One measurement row.
#[derive(Debug, Clone)]
pub struct DropRow {
    /// Control plane label.
    pub cp: String,
    /// Provider-link one-way delay (ms).
    pub owd_ms: u64,
    /// UDP packets the host sent.
    pub sent: u64,
    /// Packets delivered to the destination host.
    pub delivered: u64,
    /// Packets dropped at ITRs for lack of a mapping.
    pub miss_drops: u64,
    /// Packets buffered at ITRs while resolving.
    pub queued: u64,
    /// Mean queue delay (ms) of flushed packets.
    pub mean_queue_delay_ms: f64,
}

/// Result of the sweep.
#[derive(Debug, Clone, Default)]
pub struct DropsResult {
    /// All rows.
    pub rows: Vec<DropRow>,
}

impl DropsResult {
    /// The typed result section.
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "drops",
            "E2: drops/queueing during mapping resolution (CBR UDP from DNS answer)",
            &[
                "cp",
                "owd_ms",
                "sent",
                "delivered",
                "miss_drops",
                "queued",
                "mean_qdelay_ms",
            ],
        );
        for r in &self.rows {
            s.row(vec![
                Cell::str(r.cp.clone()),
                Cell::u64(r.owd_ms),
                Cell::u64(r.sent),
                Cell::u64(r.delivered),
                Cell::u64(r.miss_drops),
                Cell::u64(r.queued),
                Cell::f64(r.mean_queue_delay_ms, 1),
            ]);
        }
        s
    }

    /// Render the result table.
    pub fn table(&self) -> Table {
        self.section().table()
    }

    /// Rows for one control plane.
    pub fn rows_for(&self, cp: &str) -> Vec<&DropRow> {
        self.rows.iter().filter(|r| r.cp == cp).collect()
    }
}

/// The control planes E2 compares.
pub fn e2_variants() -> Vec<CpKind> {
    vec![
        CpKind::LispDrop,
        CpKind::LispQueue,
        CpKind::LispDataCp,
        CpKind::Alt { hops: 4 },
        CpKind::Cons { cdr_depth: 1 },
        CpKind::Nerd,
        CpKind::Pce,
    ]
}

/// Run one (cp, owd) cell.
pub fn run_drops_cell(cp: CpKind, owd: Ns, seed: u64) -> DropRow {
    let packets = 150u32;
    let interval = Ns::from_ms(5);
    let mut world = ScenarioSpec::fig1(cp)
        .with(|s| {
            s.set_provider_owd(owd);
            s.set_flows(flow_script(
                &[Ns::ZERO],
                4,
                FlowMode::Udp {
                    packets,
                    interval,
                    size: 400,
                },
            ));
        })
        .build(seed);
    world.schedule_all_flows();
    world.sim.run_until(Ns::from_secs(60));

    let rec = world.records()[0].clone();
    let delivered = world.server_udp_received();
    let mut miss_drops = 0;
    let mut queued = 0;
    let mut delays: Vec<Ns> = Vec::new();
    for x in world.all_xtrs() {
        let xtr = world.sim.node_ref::<Xtr>(x);
        miss_drops += xtr.stats.miss_drops;
        queued += xtr.stats.queued;
        delays.extend(xtr.queue_delays.iter().copied());
    }
    let mean_queue_delay_ms = if delays.is_empty() {
        0.0
    } else {
        delays.iter().map(|d| d.as_ms_f64()).sum::<f64>() / delays.len() as f64
    };
    DropRow {
        cp: cp.label().into_owned(),
        owd_ms: owd.as_ms(),
        sent: u64::from(rec.data_sent),
        delivered,
        miss_drops,
        queued,
        mean_queue_delay_ms,
    }
}

/// Run the full sweep on up to `jobs` workers (`0` = auto).
pub fn run_drops_jobs(seed: u64, jobs: usize) -> DropsResult {
    let mut cells = Vec::new();
    for owd in crate::experiments::OWD_SWEEP {
        for cp in e2_variants() {
            cells.push((cp, owd));
        }
    }
    let rows = Sweep::new("e2", cells).run(
        jobs,
        |&(cp, owd)| format!("{}/owd={}ms", cp.label(), owd.as_ms()),
        |&(cp, owd)| run_drops_cell(cp, owd, seed),
    );
    DropsResult { rows }
}

/// Run the full sweep serially.
pub fn run_drops(seed: u64) -> DropsResult {
    run_drops_jobs(seed, 1)
}

/// The registry entry for E2.
pub struct E2Drops;

impl crate::experiments::Experiment for E2Drops {
    fn name(&self) -> &'static str {
        "e2"
    }
    fn title(&self) -> &'static str {
        "Packet loss/queueing during mapping resolution"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name(), self.title()).with_section(run_drops_jobs(seed, jobs).section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pce_and_nerd_lose_nothing() {
        for cp in [CpKind::Pce, CpKind::Nerd] {
            let row = run_drops_cell(cp, Ns::from_ms(30), 1);
            assert_eq!(row.miss_drops, 0, "{}", row.cp);
            assert_eq!(row.queued, 0, "{}", row.cp);
            assert_eq!(row.delivered, row.sent, "{}", row.cp);
        }
    }

    #[test]
    fn lisp_drop_loses_resolution_window() {
        let row = run_drops_cell(CpKind::LispDrop, Ns::from_ms(30), 1);
        assert!(row.miss_drops > 0);
        assert_eq!(row.delivered + row.miss_drops, row.sent);
        // ≈ T_map / interval packets lost; T_map ≈ 3 legs × ~75 ms ≈ 200 ms
        // → tens of packets at 2 ms spacing, but bounded by the flow size.
        assert!(row.miss_drops >= 5, "drops {}", row.miss_drops);
    }

    #[test]
    fn lisp_queue_delays_instead() {
        let row = run_drops_cell(CpKind::LispQueue, Ns::from_ms(30), 1);
        assert_eq!(row.miss_drops, 0);
        assert!(row.queued > 0);
        assert_eq!(row.delivered, row.sent);
        assert!(row.mean_queue_delay_ms > 10.0);
    }

    #[test]
    fn drops_grow_with_owd_for_lisp_drop() {
        let near = run_drops_cell(CpKind::LispDrop, Ns::from_ms(15), 1);
        let far = run_drops_cell(CpKind::LispDrop, Ns::from_ms(100), 1);
        assert!(
            far.miss_drops >= near.miss_drops,
            "near {} far {}",
            near.miss_drops,
            far.miss_drops
        );
    }

    #[test]
    fn overlay_cps_lose_more_than_mrms() {
        let mrms = run_drops_cell(CpKind::LispDrop, Ns::from_ms(30), 1);
        let alt = run_drops_cell(CpKind::Alt { hops: 6 }, Ns::from_ms(30), 1);
        assert!(
            alt.miss_drops >= mrms.miss_drops,
            "alt {} vs mrms {}",
            alt.miss_drops,
            mrms.miss_drops
        );
    }
}
