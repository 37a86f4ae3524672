//! The mapping plane of a world: everything that differs between the
//! mapping systems the paper compares, in one place.
//!
//! [`crate::spec::ScenarioSpec::build`] is one generic engine — sites,
//! DNS, xTRs, attackers, dynamics — and asks this module, by
//! [`CpKind`], what the plane contributes: the xTR's resolution mode,
//! miss policy and resolver failover list; the overlay address plan;
//! the mapping nodes at the core ([`MapSystem::build`]); and the plane's
//! dynamics hooks (re-registration, which node a crash targets, and
//! push-side takeover). Adding a control plane means a [`CpKind`]
//! variant in `scenario.rs` and its arms here.

use crate::scenario::{addrs, CpKind, FlowRouter};
use crate::spec::{ScenarioSpec, SiteRole, SiteWorld};
use inet::{Prefix, Router};
use lispdp::{CpMode, MissPolicy};
use lispwire::lispctl::{Locator, MapRecord};
use lispwire::{Ipv4Address, Packet};
use mapsys::alt::linear_chain;
use mapsys::api::MappingDb;
use mapsys::{AltRouter, ConsNode, MapResolver, NerdAuthority, RequestGuard};
use netsim::{LinkCfg, Node, NodeId, Ns, PortId, Sim};
use std::iter::once;

/// The built mapping infrastructure of a world, typed by plane. Only
/// the handles a plane actually has can be written down: an ALT world
/// has no Map-Resolver, a pull world no NERD authority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapSystem {
    /// No shared mapping node: no LISP at all, or the PCE plane, whose
    /// mapping nodes are the per-site bumps ([`SiteWorld::pce`]).
    None,
    /// The vanilla pull planes' Map-Resolver (with its registration
    /// database).
    Resolver {
        /// `map-resolver`.
        primary: NodeId,
        /// `map-resolver-2`, sharing the database (replicated worlds).
        standby: Option<NodeId>,
    },
    /// The LISP+ALT overlay.
    Alt {
        /// `alt-0 …`: the entry gateway first, the delivering router last.
        chain: Vec<NodeId>,
        /// `alt-standby`, a second entry gateway (replicated worlds).
        standby: Option<NodeId>,
    },
    /// The LISP-CONS hierarchy.
    Cons {
        /// One CAR per site, in site order.
        cars: Vec<NodeId>,
        /// The CDRs, first level first.
        cdrs: Vec<NodeId>,
        /// One standby CAR per site, in site order (replicated worlds).
        standby_cars: Vec<NodeId>,
    },
    /// The NERD push authority.
    Nerd {
        /// `nerd`.
        primary: NodeId,
        /// `nerd-2`, pushing only once promoted (replicated worlds).
        standby: Option<NodeId>,
    },
}

// ---- Overlay address plan ----------------------------------------------
// Deterministic, so xTR resolver targets are known before the overlay
// exists.

/// Address of the `i`-th ALT chain router (`alt-0` is the entry gateway).
fn alt_addr(i: usize) -> Ipv4Address {
    Ipv4Address::new(9, 1, 0, (i + 1) as u8)
}

/// Address of site `i`'s CONS CAR. The last octet wraps: from 256 sites
/// on, site 256 shares site 0's CAR address and site 257 site 1's, so a
/// CDR hands requests to the wrong CAR (DESIGN.md §8). Kept as is: the
/// fix moves a benchmark digest.
fn car_addr(i: usize) -> Ipv4Address {
    Ipv4Address::new(9, 2, 0, (i + 1) as u8)
}

/// Address of site `i`'s standby CONS CAR (wraps like [`car_addr`]).
fn standby_car_addr(i: usize) -> Ipv4Address {
    Ipv4Address::new(9, 2, 2, (i + 1) as u8)
}

/// Address of the CONS CDR at `level` (0 = the CARs' parent).
fn cdr_addr(level: usize) -> Ipv4Address {
    Ipv4Address::new(9, 2, 1, (level + 1) as u8)
}

// ---- Per-site xTR facts --------------------------------------------------

impl CpKind {
    /// How site `site`'s xTRs resolve mappings.
    ///
    /// # Panics
    /// Under [`CpKind::NoLisp`], which builds no xTRs.
    pub(crate) fn xtr_mode(self, site: usize) -> CpMode {
        let pull = |resolver| CpMode::Pull {
            map_resolver: Some(resolver),
        };
        match self {
            CpKind::LispDrop | CpKind::LispQueue | CpKind::LispDataCp => pull(addrs::MAP_RESOLVER),
            CpKind::Alt { .. } => pull(alt_addr(0)),
            CpKind::Cons { .. } => pull(car_addr(site)),
            CpKind::Nerd => CpMode::PushDb,
            CpKind::Pce => CpMode::Pce,
            CpKind::NoLisp => unreachable!("no-lisp worlds build no xTRs"),
        }
    }

    /// What an xTR does with a packet whose mapping it lacks.
    pub(crate) fn miss_policy(self) -> MissPolicy {
        match self {
            CpKind::LispQueue => MissPolicy::Queue { max_packets: 64 },
            CpKind::LispDataCp => MissPolicy::DataOverCp {
                extra_latency: Ns::from_ms(40),
            },
            _ => MissPolicy::Drop,
        }
    }

    /// Site `site`'s ordered resolver failover list in replicated
    /// worlds: the standby twin of whatever resolver the plane points
    /// at. Push planes fail over on the infrastructure side instead.
    pub(crate) fn standby_resolvers(self, site: usize) -> Vec<Ipv4Address> {
        match self {
            CpKind::LispDrop | CpKind::LispQueue | CpKind::LispDataCp => {
                vec![addrs::MAP_RESOLVER_2]
            }
            CpKind::Alt { .. } => vec![addrs::ALT_GATEWAY_2],
            CpKind::Cons { .. } => vec![standby_car_addr(site)],
            CpKind::NoLisp | CpKind::Nerd | CpKind::Pce => Vec::new(),
        }
    }
}

/// Connect `node` to the core router over `link` and route `route` to it.
pub(crate) fn attach_to_core(
    sim: &mut Sim<Packet>,
    core: NodeId,
    node: NodeId,
    route: Prefix,
    link: LinkCfg,
) {
    let (_, port) = sim.connect(node, core, link);
    sim.node_mut::<Router>(core).add_route(route, port);
}

impl MapSystem {
    /// Add the plane's mapping nodes, each attached to the core at the
    /// spec's mapping-system distance, in a fixed order: primaries
    /// first, standby twins (when the spec arms replicas) last.
    pub(crate) fn build(
        spec: &ScenarioSpec,
        sim: &mut Sim<Packet>,
        core: NodeId,
        db: &MappingDb,
    ) -> Self {
        let topo = &spec.topology;
        let link = LinkCfg::wan(topo.mapsys_owd.unwrap_or(topo.infra_owd));
        let replicated = spec.replicas.is_some_and(|r| r.count > 0);
        let guard = spec.defense.resolver_guard;
        let mut add = |name: &str, node: Box<dyn Node<Packet>>, addr: Ipv4Address| {
            let id = sim.add_node(name, node);
            attach_to_core(sim, core, id, Prefix::host(addr), link);
            id
        };
        match spec.cp {
            CpKind::LispDrop | CpKind::LispQueue | CpKind::LispDataCp => {
                // The standby twin shares the registration database
                // (registrations go to both; DESIGN.md §13).
                let resolver = |addr| {
                    let mut mr = MapResolver::new(addr, db);
                    mr.guard = guard.map(RequestGuard::new);
                    Box::new(mr)
                };
                let addr = addrs::MAP_RESOLVER;
                let primary = add("map-resolver", resolver(addr), addr);
                let standby = replicated.then(|| {
                    let addr = addrs::MAP_RESOLVER_2;
                    add("map-resolver-2", resolver(addr), addr)
                });
                MapSystem::Resolver { primary, standby }
            }
            CpKind::Alt { hops } => {
                // One shared linear overlay: the entry router is the
                // resolver every ITR uses; the far end delivers for
                // every registered site. Seed the chain with the first
                // server site (the figure's domain D), then add the rest.
                let chain_addrs: Vec<Ipv4Address> = (0..hops.max(1)).map(alt_addr).collect();
                let first = topo
                    .sites
                    .iter()
                    .position(|s| s.role == SiteRole::Server)
                    .expect("ALT needs a server site");
                let seed = &topo.sites[first];
                let mut routers =
                    linear_chain(&chain_addrs, seed.eid_prefix, seed.providers[0].rloc);
                for (i, s) in topo.sites.iter().enumerate() {
                    if i == first {
                        continue;
                    }
                    let last = routers.len() - 1;
                    for (k, router) in routers[..last].iter_mut().enumerate() {
                        router.add_overlay_route(s.eid_prefix, chain_addrs[k + 1]);
                    }
                    routers[last].add_delivery(s.eid_prefix, s.providers[0].rloc);
                }
                // The entry router is the overlay's ingress; guard it.
                routers[0].guard = guard.map(RequestGuard::new);
                let chain = routers
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| add(&format!("alt-{i}"), Box::new(r), chain_addrs[i]))
                    .collect();
                // The standby entry gateway has alt-0's first-hop routes
                // under its own address, so the rest of the chain serves
                // either ingress.
                let standby = replicated.then(|| {
                    let mut gw = AltRouter::new(addrs::ALT_GATEWAY_2);
                    for s in &topo.sites {
                        match chain_addrs.get(1) {
                            Some(&next) => gw.add_overlay_route(s.eid_prefix, next),
                            None => gw.add_delivery(s.eid_prefix, s.providers[0].rloc),
                        };
                    }
                    gw.guard = guard.map(RequestGuard::new);
                    add("alt-standby", Box::new(gw), addrs::ALT_GATEWAY_2)
                });
                MapSystem::Alt { chain, standby }
            }
            CpKind::Cons { cdr_depth } => {
                // One CAR per site under the first CDR; CDRs chain up to
                // the root. A standby CAR per site homes under the same
                // CDR, so queries it forwards reach the destination's
                // (live) primary CAR.
                let car = |i: usize, addr: Ipv4Address| {
                    let s = &topo.sites[i];
                    let mut car = ConsNode::new(addr, Some(cdr_addr(0)));
                    car.add_site(s.eid_prefix, s.providers[0].rloc);
                    car.guard = guard.map(RequestGuard::new);
                    Box::new(car)
                };
                let n = topo.sites.len();
                let cars = (0..n)
                    .map(|i| {
                        let addr = car_addr(i);
                        add(&format!("cons-car-{addr}"), car(i, addr), addr)
                    })
                    .collect();
                let cdrs = (0..=cdr_depth)
                    .map(|level| {
                        let parent = (level < cdr_depth).then(|| cdr_addr(level + 1));
                        let mut cdr = ConsNode::new(cdr_addr(level), parent);
                        for (j, s) in topo.sites.iter().enumerate() {
                            let child = match level {
                                0 => car_addr(j),
                                _ => cdr_addr(level - 1),
                            };
                            cdr.add_child(s.eid_prefix, child);
                        }
                        add(&format!("cons-cdr-{level}"), Box::new(cdr), cdr_addr(level))
                    })
                    .collect();
                let standby_cars = (0..n)
                    .filter(|_| replicated)
                    .map(|i| {
                        let addr = standby_car_addr(i);
                        add(&format!("cons-car2-{addr}"), car(i, addr), addr)
                    })
                    .collect();
                MapSystem::Cons {
                    cars,
                    cdrs,
                    standby_cars,
                }
            }
            CpKind::Nerd => {
                let subscribers: Vec<Ipv4Address> = topo
                    .sites
                    .iter()
                    .flat_map(|s| s.providers.iter().map(|p| p.rloc))
                    .collect();
                let authority = NerdAuthority::new(addrs::NERD, db, subscribers.clone());
                let primary = add("nerd", Box::new(authority), addrs::NERD);
                // The standby has the same database and subscribers but
                // no boot push: its first TOKEN_PUSH (the takeover hook)
                // promotes it and re-pushes the full database.
                let standby = replicated.then(|| {
                    let twin = NerdAuthority::new(addrs::NERD_2, db, subscribers).standby();
                    add("nerd-2", Box::new(twin), addrs::NERD_2)
                });
                MapSystem::Nerd { primary, standby }
            }
            CpKind::NoLisp | CpKind::Pce => MapSystem::None,
        }
    }

    /// Re-register `prefixes` (site `site`'s registrations) onto `rloc`
    /// at time `at`, on every node of this plane that holds them.
    pub(crate) fn reregister(
        &self,
        sim: &mut Sim<Packet>,
        at: Ns,
        site: usize,
        prefixes: &[Prefix],
        rloc: Ipv4Address,
        ttl_minutes: u16,
    ) {
        let mut update = |id, prefix| match self {
            MapSystem::None => {}
            MapSystem::Resolver { .. } => sim
                .node_mut::<MapResolver>(id)
                .schedule_update(at, prefix, rloc),
            MapSystem::Alt { .. } => sim
                .node_mut::<AltRouter>(id)
                .schedule_update(at, prefix, rloc),
            MapSystem::Cons { .. } => sim
                .node_mut::<ConsNode>(id)
                .schedule_update(at, prefix, rloc),
            MapSystem::Nerd { .. } => sim.node_mut::<NerdAuthority>(id).schedule_update(
                at,
                MapRecord {
                    eid_prefix: prefix.addr(),
                    prefix_len: prefix.len(),
                    ttl_minutes,
                    locators: vec![Locator::new(rloc, 1, 100)],
                },
            ),
        };
        let holders: Vec<NodeId> = match self {
            MapSystem::None => Vec::new(),
            MapSystem::Resolver { primary, standby } | MapSystem::Nerd { primary, standby } => {
                once(*primary).chain(*standby).collect()
            }
            // Delivery entries live on the chain's last router — and on
            // the standby gateway when the chain is one router long
            // (then the gateway delivers directly).
            MapSystem::Alt { chain, standby } => {
                let gateway = standby.filter(|_| chain.len() == 1);
                chain.last().copied().into_iter().chain(gateway).collect()
            }
            MapSystem::Cons {
                cars, standby_cars, ..
            } => once(cars[site])
                .chain(standby_cars.get(site).copied())
                .collect(),
        };
        for id in holders {
            for &prefix in prefixes {
                update(id, prefix);
            }
        }
    }

    /// The mapping node a crash or restart at `site` addresses: the
    /// shared node of a pull or push plane, the site's own CAR, or —
    /// with no shared node — the site's PCE bump (none without LISP).
    pub(crate) fn node_of(&self, site: &SiteWorld, i: usize) -> Option<NodeId> {
        match self {
            MapSystem::None => site.pce,
            MapSystem::Resolver { primary, .. } | MapSystem::Nerd { primary, .. } => Some(*primary),
            MapSystem::Alt { chain, .. } => chain.first().copied(),
            MapSystem::Cons { cars, .. } => cars.get(i).copied(),
        }
    }

    /// Infrastructure-side takeover `at` the detection time after the
    /// mapping node serving `site` crashed. Pull planes fail over
    /// client-side (the xTR's replica list) and need nothing here; push
    /// planes need the standby to start pushing. `pce_standby_port` is
    /// the site-router port toward the site's standby PCE bump.
    pub(crate) fn take_over(
        &self,
        sim: &mut Sim<Packet>,
        at: Ns,
        site: &SiteWorld,
        pce_standby_port: Option<PortId>,
    ) {
        match self {
            MapSystem::Nerd {
                standby: Some(standby),
                ..
            } => sim.schedule_timer(*standby, at, mapsys::nerd::TOKEN_PUSH),
            MapSystem::None => {
                // Three synchronized moves: the site resolver re-homes
                // its uplink to the standby bump, the site IGP re-routes
                // the DNS server address through it, and the standby
                // re-pushes its mirrored flow database.
                if let (Some(standby), Some(port)) = (site.pce_standby, pce_standby_port) {
                    sim.schedule_timer(site.dns, at, simdns::resolver::TOKEN_FAILOVER);
                    sim.node_mut::<FlowRouter>(site.router).schedule_route(
                        at,
                        Prefix::host(site.dns_addr),
                        port,
                    );
                    sim.schedule_timer(standby, at, crate::pce::TOKEN_TAKEOVER);
                }
            }
            _ => {}
        }
    }
}
