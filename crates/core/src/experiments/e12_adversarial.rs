//! **E12 — graceful degradation under adversarial control-plane load.**
//!
//! Two questions the paper's control-plane comparison leaves implicit:
//!
//! 1. **Bounded caches** — when the ITR map-cache has finite capacity,
//!    how fast does the miss rate (and the signalling it triggers) grow
//!    as capacity shrinks under a Zipf workload, and does the eviction
//!    policy matter?
//! 2. **Attack amplification** — how much control-plane work can an
//!    adversary extract from each mapping system per packet it sends
//!    (Map-Request floods), can it hijack traffic outright (cache
//!    poisoning, prefix overclaiming), and how much do the standard
//!    defenses (per-source rate limiting, negative caching, nonce and
//!    scope verification) claw back? The PCE control plane never takes
//!    a data-driven miss, so scans extract *zero* amplification from it
//!    — the graceful-degradation headline (DESIGN.md §10).

use crate::experiments::e8_overhead::control_plane_tally;
use crate::experiments::report::{Cell, ExpReport, Section};
use crate::hosts::FlowMode;
use crate::plane::MapSystem;
use crate::scenario::CpKind;
use crate::spec::{AttackerSpec, DefenseSpec, ScenarioSpec};
use crate::table::Table;
use inet::Prefix;
use lispdp::{CacheSpec, EvictionPolicy, MissPolicy, Xtr};
use lispwire::dnswire::Name;
use lispwire::Ipv4Address;
use mapsys::{AltRouter, ConsNode, MapResolver};
use netsim::Ns;

/// One row of the capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Cache shape label (`"unbounded"`, `"8 lru"`, …).
    pub cache: String,
    /// ITR cache hits.
    pub hits: u64,
    /// ITR cache misses.
    pub misses: u64,
    /// Miss ratio.
    pub miss_ratio: f64,
    /// Capacity evictions.
    pub evictions: u64,
    /// TTL expirations.
    pub expirations: u64,
    /// Map-Requests sent (the signalling cost of the misses).
    pub requests_sent: u64,
}

/// One row of the attack grid.
#[derive(Debug, Clone)]
pub struct AttackRow {
    /// Attacker role (`"none"`, `"flood"`, `"poison"`, `"overclaim"`).
    pub attack: String,
    /// Control plane label.
    pub cp: String,
    /// Whether the defenses were armed.
    pub defended: bool,
    /// Control messages tallied across the whole control plane.
    pub control_msgs: u64,
    /// Control-message amplification vs. the same control plane's
    /// attack-free baseline.
    pub amplification: f64,
    /// UDP data packets delivered to server hosts.
    pub goodput: u64,
    /// Goodput as a percentage of the attack-free baseline.
    pub goodput_pct: f64,
    /// Data packets hijacked into the attacker's sink.
    pub hijacked: u64,
    /// Map-Reply records rejected by xTR verification.
    pub rejected: u64,
    /// Requests dropped by rate limits or negative caches (xTR side plus
    /// mapping-system ingress guards).
    pub rate_limited: u64,
}

/// E12 result: the capacity sweep plus the attack grid.
#[derive(Debug, Clone, Default)]
pub struct AdversarialResult {
    /// Capacity sweep rows.
    pub capacity: Vec<CapacityRow>,
    /// Attack grid rows (baselines first).
    pub attacks: Vec<AttackRow>,
}

impl AdversarialResult {
    /// The capacity-sweep section.
    pub fn capacity_section(&self) -> Section {
        let mut s = Section::new(
            "capacity",
            "E12a: miss rate vs map-cache capacity and eviction policy (Zipf workload)",
            &[
                "cache",
                "hits",
                "misses",
                "miss_ratio",
                "evict",
                "expired",
                "reqs",
            ],
        );
        for r in &self.capacity {
            s.row(vec![
                Cell::str(r.cache.clone()),
                Cell::u64(r.hits),
                Cell::u64(r.misses),
                Cell::f64(r.miss_ratio, 3),
                Cell::u64(r.evictions),
                Cell::u64(r.expirations),
                Cell::u64(r.requests_sent),
            ]);
        }
        s
    }

    /// The attack-grid section.
    pub fn attack_section(&self) -> Section {
        let mut s = Section::new(
            "attack",
            "E12b: control-plane amplification and goodput per attacker role x control plane",
            &[
                "attack",
                "cp",
                "defended",
                "ctl_msgs",
                "amp",
                "goodput",
                "goodput_pct",
                "hijacked",
                "rejected",
                "rate_ltd",
            ],
        );
        for r in &self.attacks {
            s.row(vec![
                Cell::str(r.attack.clone()),
                Cell::str(r.cp.clone()),
                Cell::str(if r.defended { "yes" } else { "no" }),
                Cell::u64(r.control_msgs),
                Cell::f64(r.amplification, 2),
                Cell::u64(r.goodput),
                Cell::f64(r.goodput_pct, 1),
                Cell::u64(r.hijacked),
                Cell::u64(r.rejected),
                Cell::u64(r.rate_limited),
            ]);
        }
        s
    }

    /// Render both tables.
    pub fn tables(&self) -> Vec<Table> {
        vec![
            self.capacity_section().table(),
            self.attack_section().table(),
        ]
    }
}

/// The bounded cache shape every attack-grid world runs with: tight
/// enough that a scan can thrash it, sweep on so expired entries are
/// reaped even when never rematched.
fn attack_cache() -> CacheSpec {
    CacheSpec::bounded(32, EvictionPolicy::Lru).with_sweep()
}

/// Run one capacity cell: Fig. 1, fine-grained mappings over 24
/// destination EIDs, 180 Zipf(1.0) flows, 1-minute TTL.
pub fn run_capacity_cell(cache: CacheSpec, seed: u64) -> CapacityRow {
    let n_flows = 180;
    let dest_count = 24;
    let mut arrivals = crate::workload::PoissonArrivals::new(seed, 2.0);
    let mut zipf = crate::workload::ZipfPicker::new(seed.wrapping_add(1), dest_count, 1.0);
    let flows: Vec<crate::hosts::FlowSpec> = (0..n_flows)
        .map(|_| crate::hosts::FlowSpec {
            start: arrivals.next_arrival(),
            qname: Name::parse_str(&format!("host-{}.d.example", zipf.pick())).expect("valid"),
            mode: FlowMode::Udp {
                packets: 3,
                interval: Ns::from_ms(2),
                size: 300,
            },
        })
        .collect();
    let horizon = flows.last().map(|f| f.start).unwrap_or(Ns::ZERO) + Ns::from_secs(30);
    let mut world = ScenarioSpec::fig1(CpKind::LispQueue)
        .with(|s| {
            s.set_dest_count(dest_count);
            s.mapping_ttl_minutes = 1;
            s.fine_grained_mappings = true;
            s.cache = cache;
            s.set_flows(flows);
        })
        .build(seed);
    world.override_pull_miss_policy(MissPolicy::Queue { max_packets: 64 });
    world.schedule_all_flows();
    world.sim.run_until(horizon);

    let (mut hits, mut misses, mut evictions, mut expirations, mut reqs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for &x in &world.site("S").xtrs {
        let xtr = world.sim.node_ref::<Xtr>(x);
        hits += xtr.cache.hit_count;
        misses += xtr.cache.miss_count;
        evictions += xtr.cache.evictions;
        expirations += xtr.cache.expirations;
        reqs += xtr.stats.map_requests_sent + xtr.stats.map_request_retries;
    }
    let total = hits + misses;
    CapacityRow {
        cache: cache.label(),
        hits,
        misses,
        miss_ratio: if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        },
        evictions,
        expirations,
        requests_sent: reqs,
    }
}

/// Raw tallies of one attack-grid run (joined against the baseline
/// after the sweep).
#[derive(Debug, Clone, Copy)]
pub struct AttackRaw {
    /// Control messages across the whole control plane.
    pub control_msgs: u64,
    /// UDP data packets delivered to server hosts.
    pub goodput: u64,
    /// Data packets absorbed by attacker sinks.
    pub hijacked: u64,
    /// Records rejected by xTR reply verification.
    pub rejected: u64,
    /// Rate-limit and negative-cache drops, xTR + mapping system.
    pub rate_limited: u64,
}

/// The attacker roles of the grid, in report order.
pub fn attack_roles() -> Vec<(&'static str, AttackerSpec)> {
    vec![
        (
            "flood",
            AttackerSpec::MapRequestFlood {
                rate_per_sec: 200.0,
                packets: 600,
            },
        ),
        (
            "poison",
            AttackerSpec::CachePoison {
                rate_per_sec: 8.0,
                rounds: 40,
            },
        ),
        (
            "overclaim",
            AttackerSpec::Overclaim {
                site: "D1".to_string(),
                prefix_len: 8,
            },
        ),
    ]
}

/// Run one attack-grid cell: `multi_site(cp, 4, 4)` with a bounded LRU
/// cache, the given attacker (or none), and defenses on or off.
pub fn run_attack_cell(
    cp: CpKind,
    attack: Option<&AttackerSpec>,
    defended: bool,
    seed: u64,
) -> AttackRaw {
    let mut world = ScenarioSpec::multi_site(cp, 4, 4)
        .with(|s| {
            // A covering /8 EID space leaves dead space between the
            // site /16s for the flood's randomized scans.
            s.eid_space = Some(vec![Prefix::new(Ipv4Address::new(120, 0, 0, 0), 8)]);
            s.cache = attack_cache();
            if defended {
                s.defense = DefenseSpec::armed();
            }
            if let Some(a) = attack {
                s.attackers = vec![a.clone()];
            }
        })
        .build(seed);
    world.schedule_all_flows();
    let horizon = world.last_flow_start() + Ns::from_secs(20);
    world.sim.run_until(horizon);

    let mut raw = AttackRaw {
        control_msgs: control_plane_tally(&world).control_msgs,
        goodput: world.server_udp_received(),
        hijacked: 0,
        rejected: 0,
        rate_limited: 0,
    };
    for &n in &world.attack_nodes {
        raw.hijacked += world
            .sim
            .node_ref::<crate::adversary::AttackNode>(n)
            .hijacked_packets;
    }
    for x in world.all_xtrs() {
        let xtr = world.sim.node_ref::<Xtr>(x);
        raw.rejected += xtr.stats.replies_rejected;
        raw.rate_limited += xtr.stats.rate_limited_requests + xtr.stats.neg_cache_drops;
    }
    match &world.mapsys {
        MapSystem::None | MapSystem::Nerd { .. } => {}
        MapSystem::Resolver { primary, .. } => {
            if let Some(g) = &world.sim.node_ref::<MapResolver>(*primary).guard {
                raw.rate_limited += g.rate_limited + g.negative_hits;
            }
        }
        MapSystem::Alt { chain, .. } => {
            for &id in chain {
                if let Some(g) = &world.sim.node_ref::<AltRouter>(id).guard {
                    raw.rate_limited += g.rate_limited;
                }
            }
        }
        MapSystem::Cons { cars, cdrs, .. } => {
            for &id in cars.iter().chain(cdrs) {
                if let Some(g) = &world.sim.node_ref::<ConsNode>(id).guard {
                    raw.rate_limited += g.rate_limited;
                }
            }
        }
    }
    raw
}

fn ratio(attacked: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        if attacked == 0 {
            1.0
        } else {
            attacked as f64
        }
    } else {
        attacked as f64 / baseline as f64
    }
}

/// Full E12 on up to `jobs` workers (`0` = auto).
pub fn run_adversarial_jobs(seed: u64, jobs: usize) -> AdversarialResult {
    // -- E12a: capacity sweep ------------------------------------------------
    let cap_cells: Vec<CacheSpec> = vec![
        CacheSpec::bounded(4, EvictionPolicy::Lru).with_sweep(),
        CacheSpec::bounded(8, EvictionPolicy::Lru).with_sweep(),
        CacheSpec::bounded(16, EvictionPolicy::Lru).with_sweep(),
        CacheSpec::default(),
        CacheSpec::bounded(8, EvictionPolicy::Lfu).with_sweep(),
        CacheSpec::bounded(8, EvictionPolicy::Ttl).with_sweep(),
    ];
    let capacity = crate::experiments::sweep::Sweep::new("e12a", cap_cells).run(
        jobs,
        |c| c.label(),
        |&c| run_capacity_cell(c, seed),
    );

    // -- E12b: attack grid ---------------------------------------------------
    // Cells: one attack-free baseline per control plane, then every
    // attacker role x control plane x {undefended, defended}.
    let roles = attack_roles();
    let mut cells: Vec<(String, CpKind, Option<AttackerSpec>, bool)> = CpKind::all()
        .into_iter()
        .map(|cp| ("none".to_string(), cp, None, false))
        .collect();
    for (label, role) in &roles {
        for cp in CpKind::all() {
            for defended in [false, true] {
                cells.push((label.to_string(), cp, Some(role.clone()), defended));
            }
        }
    }
    let raws = crate::experiments::sweep::Sweep::new("e12b", cells.clone()).run(
        jobs,
        |(label, cp, _, defended)| {
            format!(
                "{label}/{}/{}",
                cp.label(),
                if *defended { "def" } else { "undef" }
            )
        },
        |(_, cp, attack, defended)| run_attack_cell(*cp, attack.as_ref(), *defended, seed),
    );

    // Join each cell against its control plane's attack-free baseline.
    let baseline_of = |cp: CpKind| -> AttackRaw {
        let idx = cells
            .iter()
            .position(|(label, c, _, _)| label == "none" && *c == cp)
            .expect("baseline cell exists");
        raws[idx]
    };
    let attacks = cells
        .iter()
        .zip(&raws)
        .map(|((label, cp, _, defended), raw)| {
            let base = baseline_of(*cp);
            AttackRow {
                attack: label.clone(),
                cp: cp.label().into_owned(),
                defended: *defended,
                control_msgs: raw.control_msgs,
                amplification: ratio(raw.control_msgs, base.control_msgs),
                goodput: raw.goodput,
                goodput_pct: 100.0 * ratio(raw.goodput, base.goodput),
                hijacked: raw.hijacked,
                rejected: raw.rejected,
                rate_limited: raw.rate_limited,
            }
        })
        .collect();

    AdversarialResult { capacity, attacks }
}

/// Full E12, serial.
pub fn run_adversarial(seed: u64) -> AdversarialResult {
    run_adversarial_jobs(seed, 1)
}

/// The registry entry for E12.
pub struct E12Adversarial;

impl crate::experiments::Experiment for E12Adversarial {
    fn name(&self) -> &'static str {
        "e12"
    }
    fn title(&self) -> &'static str {
        "Graceful degradation: bounded caches and adversarial load"
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        let r = run_adversarial_jobs(seed, jobs);
        ExpReport::new(self.name(), self.title())
            .with_section(r.capacity_section())
            .with_section(r.attack_section())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_capacity_means_more_misses() {
        let tight = run_capacity_cell(CacheSpec::bounded(4, EvictionPolicy::Lru).with_sweep(), 1);
        let unbounded = run_capacity_cell(CacheSpec::default(), 1);
        assert!(
            tight.miss_ratio > unbounded.miss_ratio,
            "tight {tight:?} unbounded {unbounded:?}"
        );
        assert!(tight.evictions > 0, "{tight:?}");
        assert_eq!(unbounded.evictions, 0, "{unbounded:?}");
    }

    #[test]
    fn flood_amplifies_pull_but_not_pce() {
        let flood = &attack_roles()[0].1;
        let base_q = run_attack_cell(CpKind::LispQueue, None, false, 1);
        let atk_q = run_attack_cell(CpKind::LispQueue, Some(flood), false, 1);
        assert!(
            atk_q.control_msgs >= 10 * base_q.control_msgs.max(1),
            "base {base_q:?} attacked {atk_q:?}"
        );
        let base_p = run_attack_cell(CpKind::Pce, None, false, 1);
        let atk_p = run_attack_cell(CpKind::Pce, Some(flood), false, 1);
        assert_eq!(
            atk_p.control_msgs, base_p.control_msgs,
            "PCE must stay flat under a scan flood"
        );
    }

    #[test]
    fn defenses_shrink_flood_amplification() {
        let flood = &attack_roles()[0].1;
        let undef = run_attack_cell(CpKind::LispQueue, Some(flood), false, 1);
        let def = run_attack_cell(CpKind::LispQueue, Some(flood), true, 1);
        assert!(
            def.control_msgs < undef.control_msgs,
            "undef {undef:?} def {def:?}"
        );
        assert!(def.rate_limited > 0, "{def:?}");
    }

    #[test]
    fn overclaim_is_contained_by_scope_clamping() {
        let oc = &attack_roles()[2].1;
        let base = run_attack_cell(CpKind::LispQueue, None, false, 1);
        let undef = run_attack_cell(CpKind::LispQueue, Some(oc), false, 1);
        let def = run_attack_cell(CpKind::LispQueue, Some(oc), true, 1);
        assert!(
            undef.goodput < base.goodput,
            "overclaim must misdeliver some traffic: base {base:?} undef {undef:?}"
        );
        assert!(
            def.goodput > undef.goodput,
            "scope clamping must recover goodput: undef {undef:?} def {def:?}"
        );
    }

    #[test]
    fn poison_hijacks_until_verification_is_armed() {
        let poison = &attack_roles()[1].1;
        let undef = run_attack_cell(CpKind::LispQueue, Some(poison), false, 1);
        assert!(undef.hijacked > 0, "{undef:?}");
        let def = run_attack_cell(CpKind::LispQueue, Some(poison), true, 1);
        assert_eq!(def.hijacked, 0, "{def:?}");
        assert!(def.rejected > 0, "{def:?}");
        assert!(def.goodput > undef.goodput, "undef {undef:?} def {def:?}");
    }
}
