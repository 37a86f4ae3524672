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

use crate::adversary::AttackNode;
use crate::experiments::{
    run_world, Cell, Grid, Horizon, RunRecord, Section, Sections, Value, QUEUE,
};
use crate::hosts::{FlowMode, FlowSpec};
use crate::plane::MapSystem;
use crate::scenario::CpKind;
use crate::spec::{AttackerSpec, DefenseSpec, ScenarioSpec};
use crate::workload::{PoissonArrivals, ZipfPicker};
use inet::Prefix;
use lispdp::{CacheSpec, EvictionPolicy, Xtr};
use lispwire::dnswire::Name;
use lispwire::Ipv4Address;
use mapsys::{AltRouter, ConsNode, MapResolver};
use netsim::Ns;

/// The capacity cells, in report order.
pub fn capacity_cells() -> Vec<CacheSpec> {
    let bounded = |n, policy| CacheSpec::bounded(n, policy).with_sweep();
    vec![
        bounded(4, EvictionPolicy::Lru),
        bounded(8, EvictionPolicy::Lru),
        bounded(16, EvictionPolicy::Lru),
        CacheSpec::default(),
        bounded(8, EvictionPolicy::Lfu),
        bounded(8, EvictionPolicy::Ttl),
    ]
}

/// One capacity cell: Fig. 1 under lisp-queue, fine-grained mappings
/// over 24 destination EIDs, 180 Zipf(1.0) flows, 1-minute TTL.
pub fn capacity_spec(cache: CacheSpec, seed: u64) -> ScenarioSpec {
    let dest_count = 24;
    let mut arrivals = PoissonArrivals::new(seed, 2.0);
    let mut zipf = ZipfPicker::new(seed.wrapping_add(1), dest_count, 1.0);
    let flows = (0..180)
        .map(|_| FlowSpec {
            start: arrivals.next_arrival(),
            qname: Name::parse_str(&format!("host-{}.d.example", zipf.pick())).expect("valid"),
            mode: FlowMode::Udp {
                packets: 3,
                interval: Ns::from_ms(2),
                size: 300,
            },
        })
        .collect();
    ScenarioSpec::fig1(CpKind::LispQueue).with(|s| {
        s.set_dest_count(dest_count);
        s.mapping_ttl_minutes = 1;
        s.fine_grained_mappings = true;
        s.cache = cache;
        s.set_flows(flows);
        s.pull_miss_policy = Some(QUEUE);
    })
}

/// E12a: miss rate vs cache capacity and eviction policy.
pub fn capacity_grid() -> Grid<CacheSpec> {
    Grid {
        name: "e12",
        title: TITLE,
        key: "capacity",
        heading: "E12a: miss rate vs map-cache capacity and eviction policy (Zipf workload)",
        columns: &[
            "cache",
            "hits",
            "misses",
            "miss_ratio",
            "evict",
            "expired",
            "reqs",
        ],
        cells: capacity_cells(),
        row: |&cache, seed| {
            let horizon = Horizon::AfterLastFlow(Ns::from_secs(30));
            let world = run_world(&capacity_spec(cache, seed), seed, horizon);
            let (mut hits, mut misses, mut evict, mut expired, mut reqs) = (0, 0, 0, 0, 0);
            for &x in &world.site("S").xtrs {
                let xtr = world.sim.node_ref::<Xtr>(x);
                hits += xtr.cache.hit_count;
                misses += xtr.cache.miss_count;
                evict += xtr.cache.evictions;
                expired += xtr.cache.expirations;
                // The signalling cost of the misses.
                reqs += xtr.stats.map_requests_sent + xtr.stats.map_request_retries;
            }
            let total = hits + misses;
            let miss_ratio = if total == 0 {
                0.0
            } else {
                misses as f64 / total as f64
            };
            vec![
                Cell::str(cache.label()),
                Cell::u64(hits),
                Cell::u64(misses),
                Cell::f64(miss_ratio, 3),
                Cell::u64(evict),
                Cell::u64(expired),
                Cell::u64(reqs),
            ]
        },
    }
}

/// The bounded cache shape every attack-grid world runs with: tight
/// enough that a scan can thrash it, sweep on so expired entries are
/// reaped even when never rematched.
fn attack_cache() -> CacheSpec {
    CacheSpec::bounded(32, EvictionPolicy::Lru).with_sweep()
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

/// One attack cell: the attacker role's label, the plane, the attacker
/// (`None` for the plane's attack-free baseline) and whether the
/// defenses are armed.
pub type AttackCell = (&'static str, CpKind, Option<AttackerSpec>, bool);

/// The attack cells: one attack-free baseline per control plane, then
/// every attacker role × control plane × {undefended, defended}.
pub fn attack_cells() -> Vec<AttackCell> {
    let mut cells: Vec<AttackCell> = CpKind::all()
        .into_iter()
        .map(|cp| ("none", cp, None, false))
        .collect();
    for (label, role) in attack_roles() {
        for cp in CpKind::all() {
            for defended in [false, true] {
                cells.push((label, cp, Some(role.clone()), defended));
            }
        }
    }
    cells
}

/// One attack cell's world: `multi_site(cp, 4, 4)` with a bounded LRU
/// cache, the attacker (if any) and the defenses on or off.
pub fn attack_spec(cp: CpKind, attack: Option<&AttackerSpec>, defended: bool) -> ScenarioSpec {
    ScenarioSpec::multi_site(cp, 4, 4).with(|s| {
        // A covering /8 EID space leaves dead space between the site
        // /16s for the flood's randomized scans.
        s.eid_space = Some(vec![Prefix::new(Ipv4Address::new(120, 0, 0, 0), 8)]);
        s.cache = attack_cache();
        if defended {
            s.defense = DefenseSpec::armed();
        }
        s.attackers = attack.into_iter().cloned().collect();
    })
}

/// E12b before the baseline join: `amp` and `goodput_pct` are empty
/// until [`join_baselines`] fills them in.
pub fn attack_grid() -> Grid<AttackCell> {
    Grid {
        name: "e12",
        title: TITLE,
        key: "attack",
        heading: "E12b: control-plane amplification and goodput per attacker role x control plane",
        columns: &[
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
        cells: attack_cells(),
        row: |(label, cp, attack, defended), seed| {
            let spec = attack_spec(*cp, attack.as_ref(), *defended);
            let world = run_world(&spec, seed, Horizon::AfterLastFlow(Ns::from_secs(20)));
            let r = RunRecord::of(&world);
            // Data packets absorbed by attacker sinks.
            let hijacked: u64 = world
                .attack_nodes
                .iter()
                .map(|&n| world.sim.node_ref::<AttackNode>(n).hijacked_packets)
                .sum();
            // Records rejected by xTR reply verification; requests
            // dropped by rate limits or negative caches, xTR side plus
            // the mapping system's ingress guards.
            let (mut rejected, mut rate_limited) = (0, 0);
            for x in world.all_xtrs() {
                let s = &world.sim.node_ref::<Xtr>(x).stats;
                rejected += s.replies_rejected;
                rate_limited += s.rate_limited_requests + s.neg_cache_drops;
            }
            match &world.mapsys {
                MapSystem::None | MapSystem::Nerd { .. } => {}
                MapSystem::Resolver { primary, .. } => {
                    if let Some(g) = &world.sim.node_ref::<MapResolver>(*primary).guard {
                        rate_limited += g.rate_limited + g.negative_hits;
                    }
                }
                MapSystem::Alt { chain, .. } => {
                    for &id in chain {
                        if let Some(g) = &world.sim.node_ref::<AltRouter>(id).guard {
                            rate_limited += g.rate_limited;
                        }
                    }
                }
                MapSystem::Cons { cars, cdrs, .. } => {
                    for &id in cars.iter().chain(cdrs) {
                        if let Some(g) = &world.sim.node_ref::<ConsNode>(id).guard {
                            rate_limited += g.rate_limited;
                        }
                    }
                }
            }
            vec![
                Cell::str(*label),
                Cell::str(cp.label()),
                Cell::str(if *defended { "yes" } else { "no" }),
                Cell::u64(r.tally.control_msgs),
                Cell::empty(),
                Cell::u64(r.delivered),
                Cell::empty(),
                Cell::u64(hijacked),
                Cell::u64(rejected),
                Cell::u64(rate_limited),
            ]
        },
    }
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

/// Join each attack row against its control plane's attack-free
/// baseline row: control-message amplification and goodput as a
/// percentage of the baseline's.
pub fn join_baselines(mut s: Section) -> Section {
    let count = |row: &[Cell], col: usize| match row[col].value {
        Value::UInt(n) => n,
        ref v => panic!("column {col} holds {v:?}, not a count"),
    };
    let baselines: Vec<Vec<Cell>> = s
        .rows
        .iter()
        .filter(|r| r[0].text == "none")
        .cloned()
        .collect();
    for row in &mut s.rows {
        let base = baselines
            .iter()
            .find(|b| b[1].text == row[1].text)
            .expect("every plane has a baseline cell");
        row[4] = Cell::f64(ratio(count(row, 3), count(base, 3)), 2);
        row[6] = Cell::f64(100.0 * ratio(count(row, 5), count(base, 5)), 1);
    }
    s
}

const TITLE: &str = "Graceful degradation: bounded caches and adversarial load";

/// The registry entry for E12: the capacity sweep and the joined
/// attack grid.
pub fn experiment() -> Sections {
    Sections {
        name: "e12",
        title: TITLE,
        run: |seed, jobs| {
            vec![
                capacity_grid().section(seed, jobs),
                join_baselines(attack_grid().section(seed, jobs)),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::attach_to_core;
    use crate::spec::SiteRole;
    use inet::stack::IpStack;
    use lispwire::lispctl::{Locator, MapRecord, MapReply};
    use lispwire::packet::{CtlMsg, Packet};
    use lispwire::ports;
    use netsim::LinkCfg;

    fn capacity(cache: CacheSpec) -> Section {
        Grid {
            cells: vec![cache],
            ..capacity_grid()
        }
        .section(1, 1)
    }

    /// One attack cell's raw row (before the baseline join).
    fn attack(cp: CpKind, role: Option<usize>, defended: bool) -> Section {
        let role = role.map(|i| attack_roles().swap_remove(i));
        let label = role.as_ref().map_or("none", |r| r.0);
        Grid {
            cells: vec![(label, cp, role.map(|r| r.1), defended)],
            ..attack_grid()
        }
        .section(1, 1)
    }

    fn n(s: &Section, column: &str) -> f64 {
        s.num(0, column).unwrap()
    }

    const FLOOD: Option<usize> = Some(0);
    const POISON: Option<usize> = Some(1);
    const OVERCLAIM: Option<usize> = Some(2);

    #[test]
    fn smaller_capacity_means_more_misses() {
        let tight = capacity(CacheSpec::bounded(4, EvictionPolicy::Lru).with_sweep());
        let unbounded = capacity(CacheSpec::default());
        assert!(
            n(&tight, "miss_ratio") > n(&unbounded, "miss_ratio"),
            "tight {tight:?} unbounded {unbounded:?}"
        );
        assert!(n(&tight, "evict") > 0.0, "{tight:?}");
        assert_eq!(n(&unbounded, "evict"), 0.0, "{unbounded:?}");
    }

    #[test]
    fn flood_amplifies_pull_but_not_pce() {
        let base_q = attack(CpKind::LispQueue, None, false);
        let atk_q = attack(CpKind::LispQueue, FLOOD, false);
        assert!(
            n(&atk_q, "ctl_msgs") >= 10.0 * n(&base_q, "ctl_msgs").max(1.0),
            "base {base_q:?} attacked {atk_q:?}"
        );
        let base_p = attack(CpKind::Pce, None, false);
        let atk_p = attack(CpKind::Pce, FLOOD, false);
        assert_eq!(
            n(&atk_p, "ctl_msgs"),
            n(&base_p, "ctl_msgs"),
            "PCE must stay flat under a scan flood"
        );
    }

    #[test]
    fn defenses_shrink_flood_amplification() {
        let undef = attack(CpKind::LispQueue, FLOOD, false);
        let def = attack(CpKind::LispQueue, FLOOD, true);
        assert!(
            n(&def, "ctl_msgs") < n(&undef, "ctl_msgs"),
            "undef {undef:?} def {def:?}"
        );
        assert!(n(&def, "rate_ltd") > 0.0, "{def:?}");
    }

    #[test]
    fn overclaim_is_contained_by_scope_clamping() {
        let base = attack(CpKind::LispQueue, None, false);
        let undef = attack(CpKind::LispQueue, OVERCLAIM, false);
        let def = attack(CpKind::LispQueue, OVERCLAIM, true);
        assert!(
            n(&undef, "goodput") < n(&base, "goodput"),
            "overclaim must misdeliver some traffic: base {base:?} undef {undef:?}"
        );
        assert!(
            n(&def, "goodput") > n(&undef, "goodput"),
            "scope clamping must recover goodput: undef {undef:?} def {def:?}"
        );
    }

    #[test]
    fn poison_hijacks_until_verification_is_armed() {
        let undef = attack(CpKind::LispQueue, POISON, false);
        assert!(n(&undef, "hijacked") > 0.0, "{undef:?}");
        let def = attack(CpKind::LispQueue, POISON, true);
        assert_eq!(n(&def, "hijacked"), 0.0, "{def:?}");
        assert!(n(&def, "rejected") > 0.0, "{def:?}");
        assert!(
            n(&def, "goodput") > n(&undef, "goodput"),
            "undef {undef:?} def {def:?}"
        );
    }

    /// The Almasan et al. threat model against armed defenses: an
    /// off-path attacker that cannot see nonces in flight but counts
    /// them. It sprays spoofed Map-Replies carrying every nonce in
    /// `1..=K` every 10 ms, claiming each server site's prefix for its
    /// own RLOC, at every client-site xTR. Nonce verification holds
    /// only if no xTR installs the attacker's locator, on every pull
    /// plane at every seed. The client xTRs must reject every spoofed
    /// reply, so the check cannot pass because none arrived.
    #[test]
    fn counting_nonce_attacker_cannot_poison_armed_xtrs() {
        const K: u64 = 64;
        const ROUNDS: u64 = 200;
        let planes = [
            CpKind::LispDrop,
            CpKind::LispQueue,
            CpKind::LispDataCp,
            CpKind::Alt { hops: 4 },
            CpKind::Cons { cdr_depth: 1 },
        ];
        for (cp, seed) in planes
            .into_iter()
            .flat_map(|cp| (1..=3).map(move |s| (cp, s)))
        {
            let mut world = attack_spec(cp, None, true).build(seed);
            let addr = Ipv4Address::new(66, 6, 0, 99);
            let stack = IpStack::new(addr);
            let victims: Vec<Ipv4Address> = world.client().xtr_rlocs.clone();
            let claims: Vec<Prefix> = world
                .sites
                .iter()
                .filter(|s| s.role == SiteRole::Server)
                .map(|s| s.eid_prefix)
                .collect();
            let mut round = Vec::new();
            for nonce in 1..=K {
                for &victim in &victims {
                    for &claim in &claims {
                        let reply = MapReply {
                            nonce,
                            records: vec![MapRecord {
                                eid_prefix: claim.addr(),
                                prefix_len: claim.len(),
                                ttl_minutes: 60,
                                locators: vec![Locator::new(addr, 1, 100)],
                            }],
                        };
                        let msg = CtlMsg::Reply(reply);
                        round.push(stack.ctl(
                            ports::LISP_CONTROL,
                            victim,
                            ports::LISP_CONTROL,
                            msg,
                        ));
                    }
                }
            }
            let per_round = round.len() as u64;
            let script: Vec<Packet> = (0..ROUNDS).flat_map(|_| round.iter().cloned()).collect();
            let node = world
                .sim
                .add_node("attacker-count", Box::new(AttackNode::new(addr, script)));
            let link = LinkCfg::wan(Ns::from_ms(10));
            attach_to_core(&mut world.sim, world.core, node, Prefix::host(addr), link);
            for r in 0..ROUNDS {
                for j in 0..per_round {
                    world
                        .sim
                        .schedule_timer(node, Ns::from_ms(10 * r), r * per_round + j);
                }
            }
            world.schedule_all_flows();
            let horizon = world.last_flow_start() + Ns::from_secs(20);
            world.sim.run_until(horizon);

            let attacker = world.sim.node_ref::<AttackNode>(node);
            assert_eq!(attacker.sent, ROUNDS * per_round);
            let mut rejected = 0;
            for &x in &world.client().xtrs {
                let xtr = world.sim.node_ref::<Xtr>(x);
                let poisoned: Vec<Prefix> = xtr
                    .cache
                    .iter()
                    .filter(|(_, e)| e.record.locators.iter().any(|l| l.rloc == addr))
                    .map(|(p, _)| p)
                    .collect();
                assert!(
                    poisoned.is_empty(),
                    "{} seed {seed}: xTR {} installed {poisoned:?}",
                    cp.label(),
                    xtr.cfg.rloc
                );
                rejected += xtr.stats.replies_rejected;
            }
            assert!(
                rejected >= ROUNDS * per_round,
                "{} seed {seed}: {rejected} of {} spoofed replies rejected",
                cp.label(),
                ROUNDS * per_round
            );
            assert_eq!(attacker.hijacked_packets, 0);
        }
    }
}
