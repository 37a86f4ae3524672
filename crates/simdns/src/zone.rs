//! Zone data for authoritative servers.

use lispwire::dnswire::{Name, Rdata, Record};
use lispwire::Ipv4Address;
use std::collections::BTreeMap;

/// One delegation: a child zone cut with its name servers and glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// The delegated child zone name.
    pub zone: Name,
    /// Name-server names with their glue addresses.
    pub servers: Vec<(Name, Ipv4Address)>,
    /// TTL for the NS and glue records.
    pub ttl: u32,
}

/// A zone: an apex plus its data and delegations.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    /// The zone apex (e.g. `example` or the root).
    pub apex: Name,
    /// A records by owner name.
    pub a_records: BTreeMap<Name, (Ipv4Address, u32)>,
    /// Delegations by child-zone name.
    pub delegations: BTreeMap<Name, Delegation>,
}

impl Zone {
    /// An empty zone with the given apex.
    pub fn new(apex: Name) -> Self {
        Self {
            apex,
            a_records: BTreeMap::new(),
            delegations: BTreeMap::new(),
        }
    }

    /// Add an A record.
    pub fn add_a(&mut self, name: Name, addr: Ipv4Address, ttl: u32) -> &mut Self {
        debug_assert!(name.is_subdomain_of(&self.apex), "record outside zone");
        self.a_records.insert(name, (addr, ttl));
        self
    }

    /// Add a delegation for a child zone.
    pub fn delegate(
        &mut self,
        child: Name,
        servers: Vec<(Name, Ipv4Address)>,
        ttl: u32,
    ) -> &mut Self {
        debug_assert!(child.is_subdomain_of(&self.apex), "delegation outside zone");
        self.delegations.insert(
            child.clone(),
            Delegation {
                zone: child,
                servers,
                ttl,
            },
        );
        self
    }

    /// Find the delegation (if any) that covers `qname`: the most specific
    /// delegated child the name falls under. One map lookup per ancestor
    /// of `qname`, the name itself first.
    pub fn covering_delegation(&self, qname: &Name) -> Option<&Delegation> {
        qname
            .ancestors()
            .find_map(|zone| self.delegations.get(zone))
    }
}

/// What an authoritative lookup produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// Authoritative answer records.
    Answer(Vec<Record>),
    /// Referral: NS records for the child zone plus glue.
    Referral {
        /// NS records (owner = child zone).
        ns: Vec<Record>,
        /// Glue A records for the name servers.
        glue: Vec<Record>,
    },
    /// The name does not exist in this zone.
    NxDomain,
    /// The query name is not inside any zone this store serves.
    NotAuthoritative,
}

/// The set of zones one server is authoritative for.
#[derive(Debug, Clone, Default)]
pub struct ZoneStore {
    zones: Vec<Zone>,
}

impl ZoneStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a zone.
    pub fn add_zone(&mut self, zone: Zone) -> &mut Self {
        self.zones.push(zone);
        self
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True if the store has no zones.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// The most specific zone whose apex covers `qname`.
    pub fn best_zone(&self, qname: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(&z.apex))
            .max_by_key(|z| z.apex.label_count())
    }

    /// Perform the authoritative lookup for an A query.
    pub fn lookup(&self, qname: &Name) -> LookupResult {
        let Some(zone) = self.best_zone(qname) else {
            return LookupResult::NotAuthoritative;
        };
        // Delegation check first: a zone cut takes precedence for names
        // below it (unless the name is the data at/above the cut).
        if let Some(d) = zone.covering_delegation(qname) {
            let ns = d
                .servers
                .iter()
                .map(|(nsname, _)| Record::ns(d.zone.clone(), nsname.clone(), d.ttl))
                .collect();
            let glue = d
                .servers
                .iter()
                .map(|(nsname, addr)| Record::a(nsname.clone(), *addr, d.ttl))
                .collect();
            return LookupResult::Referral { ns, glue };
        }
        if let Some((addr, ttl)) = zone.a_records.get(qname) {
            return LookupResult::Answer(vec![Record {
                name: qname.clone(),
                ttl: *ttl,
                rdata: Rdata::A(*addr),
            }]);
        }
        LookupResult::NxDomain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(s: &str) -> Name {
        Name::parse_str(s).unwrap()
    }
    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn root_zone() -> Zone {
        let mut z = Zone::new(Name::root());
        z.delegate(
            n("example"),
            vec![(n("ns.example"), a([12, 0, 0, 53]))],
            86400,
        );
        z
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(n("example"));
        z.add_a(n("host.d.example"), a([101, 0, 0, 5]), 300);
        z.delegate(
            n("deep.example"),
            vec![(n("ns.deep.example"), a([13, 0, 0, 53]))],
            3600,
        );
        z
    }

    #[test]
    fn answer_when_present() {
        let mut store = ZoneStore::new();
        store.add_zone(example_zone());
        match store.lookup(&n("host.d.example")) {
            LookupResult::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rdata, Rdata::A(a([101, 0, 0, 5])));
                assert_eq!(recs[0].ttl, 300);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn referral_below_cut() {
        let mut store = ZoneStore::new();
        store.add_zone(root_zone());
        match store.lookup(&n("host.d.example")) {
            LookupResult::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(ns[0].name, n("example"));
                assert_eq!(glue[0].rdata, Rdata::A(a([12, 0, 0, 53])));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_inside_zone() {
        let mut store = ZoneStore::new();
        store.add_zone(example_zone());
        assert_eq!(store.lookup(&n("missing.example")), LookupResult::NxDomain);
    }

    #[test]
    fn not_authoritative_outside() {
        let mut store = ZoneStore::new();
        store.add_zone(example_zone());
        assert_eq!(
            store.lookup(&n("other.org")),
            LookupResult::NotAuthoritative
        );
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut store = ZoneStore::new();
        store.add_zone(root_zone());
        store.add_zone(example_zone());
        // With both zones loaded, example data answers directly instead of
        // the root's referral.
        assert!(matches!(
            store.lookup(&n("host.d.example")),
            LookupResult::Answer(_)
        ));
    }

    #[test]
    fn nested_delegation_prefers_deepest() {
        let z = example_zone();
        let d = z.covering_delegation(&n("host.deep.example")).unwrap();
        assert_eq!(d.zone, n("deep.example"));
        assert!(z.covering_delegation(&n("host.d.example")).is_none());
    }

    /// The linear scan `covering_delegation` was before it walked the
    /// name's ancestors: every delegation the name falls under, the one
    /// with the most labels winning. Kept as the walk's oracle.
    fn covering_by_scan<'z>(zone: &'z Zone, qname: &Name) -> Option<&'z Delegation> {
        let mut best: Option<&Delegation> = None;
        for d in zone.delegations.values() {
            if qname.is_subdomain_of(&d.zone) {
                match best {
                    Some(b) if b.zone.label_count() >= d.zone.label_count() => {}
                    _ => best = Some(d),
                }
            }
        }
        best
    }

    /// Names with a label count drawn from `depths`, over a three-letter
    /// alphabet, so that delegations nest and queries hit them often.
    fn arb_name(depths: core::ops::Range<usize>) -> impl Strategy<Value = Name> {
        prop::collection::vec(0usize..3, depths).prop_map(|labels| {
            let text: Vec<&str> = labels.iter().map(|&l| ["a", "b", "c"][l]).collect();
            n(&text.join("."))
        })
    }

    proptest! {
        #[test]
        fn ancestor_walk_matches_linear_scan(
            cuts in prop::collection::vec(arb_name(1..5), 0..12),
            queries in prop::collection::vec(arb_name(0..6), 1..12),
        ) {
            let mut zone = Zone::new(Name::root());
            for (i, cut) in cuts.iter().enumerate() {
                zone.delegate(cut.clone(), vec![(n("ns.x"), a([10, 0, 0, i as u8]))], 60);
            }
            // Queries equal to a delegation, and the root, every time.
            for q in queries.iter().chain(&cuts).chain([&Name::root()]) {
                prop_assert_eq!(zone.covering_delegation(q), covering_by_scan(&zone, q));
            }
        }
    }

    #[test]
    fn root_zone_covers_everything() {
        let mut store = ZoneStore::new();
        store.add_zone(root_zone());
        assert!(!matches!(
            store.lookup(&n("anything.at.all")),
            LookupResult::NotAuthoritative
        ));
    }
}
