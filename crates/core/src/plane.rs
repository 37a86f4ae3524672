//! The mapping plane of a world: everything that differs between the
//! mapping systems the paper compares, in one place.
//!
//! [`crate::spec::ScenarioSpec::build`] is one generic engine — sites,
//! DNS, xTRs, attackers, dynamics — and asks this module, by
//! [`CpKind`], what the plane contributes: the DNS side of each site
//! (the PCE plane's bump and standby, `attach_site_dns`); whether sites
//! have xTRs at all (`add_direct_uplinks` when not); the xTR's
//! resolution mode, miss policy, resolver failover list and PCE peer;
//! the overlay address plan; the mapping nodes at the core
//! (`MapSystem::build`); and the plane's dynamics hooks
//! (re-registration, which node a crash targets, and push-side
//! takeover). Adding a control plane means a [`CpKind`] variant in
//! `scenario.rs` and its arms here.

use crate::pce::{Pce, PceConfig};
use crate::scenario::{addrs, CpKind, FlowRouter};
use crate::spec::{spell, ScenarioSpec, SiteRole, SiteSpec, SiteWorld};
use inet::{Prefix, Router};
use ircte::Provider;
use lispdp::{CpMode, MissPolicy};
use lispwire::lispctl::MapRecord;
use lispwire::{Ipv4Address, Packet};
use mapsys::alt::linear_chain;
use mapsys::api::MappingDb;
use mapsys::{AltRouter, ConsNode, MapResolver, NerdAuthority, RequestGuard};
use netsim::{LinkCfg, Node, NodeId, Ns, PortId, Sim};
use simdns::Resolver;
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

    /// Whether sites reach the core through xTRs: every plane but
    /// [`CpKind::NoLisp`], whose sites route their EIDs natively.
    pub(crate) fn has_xtrs(self) -> bool {
        self != CpKind::NoLisp
    }

    /// The address of `site`'s PCE bump, in the plane that has one: the
    /// site resolver notifies it of every query, the xTRs sync with it.
    pub(crate) fn pce_addr(self, site: &SiteSpec) -> Option<Ipv4Address> {
        (self == CpKind::Pce).then(|| site.pce_addr())
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

/// Connect `node` to the site router `router` over `link` and route
/// `routes` to it there; returns the router's port.
pub(crate) fn attach_to_site(
    sim: &mut Sim<Packet>,
    router: NodeId,
    node: NodeId,
    link: LinkCfg,
    routes: impl IntoIterator<Item = Prefix>,
) -> PortId {
    let (_, port) = sim.connect(node, router, link);
    route_site(sim, router, port, routes);
    port
}

/// Route `routes` to `port` at the site router `router`: every route a
/// site router holds at build is written here.
fn route_site(
    sim: &mut Sim<Packet>,
    router: NodeId,
    port: PortId,
    routes: impl IntoIterator<Item = Prefix>,
) {
    let r = sim.node_mut::<FlowRouter>(router);
    for route in routes {
        r.add_route(route, port);
    }
}

/// The border of a plane without xTRs: each site router's own uplink to
/// the core over its first provider's link, the site's EIDs routed
/// natively. Every provider's entry in `provider_links` aliases it.
pub(crate) fn add_direct_uplinks(
    sim: &mut Sim<Packet>,
    core: NodeId,
    sites: &mut [SiteWorld],
    specs: &[SiteSpec],
) {
    for (site, s) in sites.iter_mut().zip(specs) {
        let p = &s.providers[0];
        site.provider_links = vec![sim.link_count(); s.providers.len()];
        let (uplink, core_port) = sim.connect(site.router, core, p.link());
        let r = sim.node_mut::<Router>(core);
        r.add_route(s.eid_prefix, core_port);
        r.add_route(p.core_route, core_port);
        route_site(sim, site.router, uplink, [Prefix::DEFAULT]);
    }
}

/// The DNS side of every site. In the PCE plane each site DNS node sits
/// behind the site's PCE bump, and in replicated worlds the client site
/// also gets a standby bump that the primary warm-mirrors to; in every
/// other plane the DNS node is wired straight to the site router.
/// Returns the site-router port toward the standby bump.
pub(crate) fn attach_site_dns(
    spec: &ScenarioSpec,
    sim: &mut Sim<Packet>,
    sites: &mut [SiteWorld],
    buf: &mut String,
) -> Option<PortId> {
    let lan = LinkCfg::lan();
    if spec.cp != CpKind::Pce {
        for site in sites.iter() {
            let route = [Prefix::host(site.dns_addr)];
            attach_to_site(sim, site.router, site.dns, lan, route);
        }
        return None;
    }
    let specs = &spec.topology.sites;
    let replicated = spec.replicas.is_some();
    let pces: Vec<NodeId> = specs
        .iter()
        .map(|s| {
            let mut cfg = pce_config(spec, s, s.pce_addr());
            // Client sites only: server-site DNS is authoritative, not
            // resolver-driven.
            if replicated && s.role == SiteRole::Client {
                cfg.mirror_to = Some(standby_pce_addr(s));
            }
            let name = spell(buf, format_args!("PCE_{}", s.name));
            sim.add_node(name, Box::new(Pce::new(cfg)))
        })
        .collect();
    // PCE port 0 = DNS side, port 1 = network side.
    for ((site, s), pce) in sites.iter_mut().zip(specs).zip(pces) {
        sim.connect(pce, site.dns, LinkCfg::ipc());
        let routes = [Prefix::host(site.dns_addr), Prefix::host(s.pce_addr())];
        attach_to_site(sim, site.router, pce, lan, routes);
        site.pce = Some(pce);
    }
    let mut standby_port = None;
    let clients = (sites.iter_mut().zip(specs)).filter(|(site, _)| site.role == SiteRole::Client);
    for (site, s) in clients.filter(|_| replicated) {
        let addr = standby_pce_addr(s);
        let name = spell(buf, format_args!("PCE2_{}", s.name));
        let standby = sim.add_node(name, Box::new(Pce::new(pce_config(spec, s, addr))));
        // Resolver port 1 = standby uplink; taken by the
        // `Resolver::fail_over` call of `MapSystem::take_over`.
        sim.connect(standby, site.dns, LinkCfg::ipc());
        let route = [Prefix::host(addr)];
        standby_port = Some(attach_to_site(sim, site.router, standby, lan, route));
        sim.node_mut::<Resolver>(site.dns).set_failover(1, addr);
        site.pce_standby = Some(standby);
    }
    standby_port
}

/// The standby PCE bump's address, next to the primary on the site's
/// first internal subnet (primary .200, standby .201).
fn standby_pce_addr(s: &SiteSpec) -> Ipv4Address {
    let o = s.providers[0].internal_prefix.addr().0;
    Ipv4Address::new(o[0], o[1], o[2], 201)
}

/// The configuration of a PCE bump at `addr` serving site `s`.
fn pce_config(spec: &ScenarioSpec, s: &SiteSpec, addr: Ipv4Address) -> PceConfig {
    let providers: Vec<Provider> = (s.providers.iter())
        .map(|p| Provider::new(&p.name, p.rloc, p.bandwidth_bps as f64 / 1e6))
        .collect();
    let rlocs = s.providers.iter().map(|p| p.rloc).collect();
    let mut cfg = PceConfig::new(addr, vec![s.eid_prefix], rlocs, providers);
    cfg.precompute = spec.pce_precompute;
    cfg.push_to_all_itrs = spec.pce_push_all;
    cfg.policy = spec.pce_policy;
    cfg.mapping_ttl_minutes = spec.mapping_ttl_minutes;
    cfg
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
        let replicated = spec.replicas.is_some();
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
                // no boot push: `take_over` promotes it and re-pushes
                // the full database.
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
        let mut update = |id, prefix: Prefix| match self {
            MapSystem::None => {}
            MapSystem::Resolver { .. } => {
                sim.schedule_call::<MapResolver>(id, at, move |n, ctx| {
                    n.update_site(ctx, prefix, rloc)
                })
            }
            MapSystem::Alt { .. } => sim.schedule_call::<AltRouter>(id, at, move |n, ctx| {
                n.update_delivery(ctx, prefix, rloc)
            }),
            MapSystem::Cons { .. } => sim
                .schedule_call::<ConsNode>(id, at, move |n, ctx| n.update_site(ctx, prefix, rloc)),
            MapSystem::Nerd { .. } => {
                let record = MapRecord {
                    prefix_len: prefix.len(),
                    ..MapRecord::host(prefix.addr(), rloc, ttl_minutes)
                };
                sim.schedule_call::<NerdAuthority>(id, at, move |n, ctx| {
                    n.apply_update(ctx, record)
                })
            }
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
            } => sim.schedule_call::<NerdAuthority>(*standby, at, NerdAuthority::take_over),
            MapSystem::None => {
                // Three synchronized moves: the site resolver re-homes
                // its uplink to the standby bump, the site IGP re-routes
                // the DNS server address through it, and the standby
                // re-pushes its mirrored flow database.
                if let (Some(standby), Some(port)) = (site.pce_standby, pce_standby_port) {
                    sim.schedule_call::<Resolver>(site.dns, at, Resolver::fail_over);
                    let dns = Prefix::host(site.dns_addr);
                    sim.schedule_call::<FlowRouter>(site.router, at, move |r, ctx| {
                        r.reroute(ctx, dns, port)
                    });
                    sim.schedule_call::<Pce>(standby, at, Pce::take_over);
                }
            }
            _ => {}
        }
    }
}
