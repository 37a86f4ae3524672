//! The shared mapping database: every control plane in an experiment is
//! configured from the same set of site registrations, so comparisons are
//! apples-to-apples.

use inet::Prefix;
use lispwire::lispctl::{Locator, MapRecord};
use lispwire::Ipv4Address;
use std::collections::BTreeSet;

/// One registered LISP site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteEntry {
    /// The site's EID prefix.
    pub prefix: Prefix,
    /// The site's locator set (RLOCs with priority/weight).
    pub locators: Vec<Locator>,
    /// The address of the site's authoritative ETR (where Map-Requests
    /// terminate). Usually the first locator.
    pub etr_addr: Ipv4Address,
    /// Record TTL in minutes.
    pub ttl_minutes: u16,
}

impl SiteEntry {
    /// A single-homed site: one RLOC which is also the ETR.
    pub fn single(prefix: Prefix, rloc: Ipv4Address, ttl_minutes: u16) -> Self {
        Self {
            prefix,
            locators: vec![Locator::new(rloc, 1, 100)],
            etr_addr: rloc,
            ttl_minutes,
        }
    }

    /// The mapping record for this site.
    pub fn record(&self) -> MapRecord {
        MapRecord {
            eid_prefix: self.prefix.addr(),
            prefix_len: self.prefix.len(),
            ttl_minutes: self.ttl_minutes,
            locators: self.locators.clone(),
        }
    }
}

/// The registry all mapping systems are configured from.
#[derive(Debug, Clone, Default)]
pub struct MappingDb {
    sites: Vec<SiteEntry>,
    /// Every registered prefix, so a duplicate is found in O(log n).
    prefixes: BTreeSet<Prefix>,
}

impl MappingDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a site.
    ///
    /// # Panics
    /// Panics if the exact EID prefix is already registered: two entries
    /// for one prefix make [`MappingDb::lookup`] ambiguous (the
    /// most-specific tie-break would pick one arbitrarily), which is a
    /// spec-construction bug — multi-site scenarios that assign
    /// colliding prefixes should fail loudly at build time. *Nested*
    /// (more-/less-specific) registrations remain legal; longest-prefix
    /// match disambiguates them.
    pub fn register(&mut self, site: SiteEntry) -> &mut Self {
        if !self.prefixes.insert(site.prefix) {
            let existing = self
                .sites
                .iter()
                .find(|s| s.prefix == site.prefix)
                .expect("every indexed prefix has its site");
            panic!(
                "duplicate EID-prefix registration {} (already registered with ETR {}, \
                 new ETR {}): lookups would be ambiguous",
                site.prefix, existing.etr_addr, site.etr_addr
            );
        }
        self.sites.push(site);
        self
    }

    /// All registrations.
    pub fn sites(&self) -> &[SiteEntry] {
        &self.sites
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no sites are registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site whose prefix contains `eid` (most specific).
    pub fn lookup(&self, eid: Ipv4Address) -> Option<&SiteEntry> {
        self.sites
            .iter()
            .filter(|s| s.prefix.contains(eid))
            .max_by_key(|s| s.prefix.len())
    }

    /// All records (for NERD full-database pushes).
    pub fn records(&self) -> Vec<MapRecord> {
        self.sites.iter().map(SiteEntry::record).collect()
    }

    /// Total state size in wire bytes (E8 accounting).
    pub fn wire_size(&self) -> usize {
        self.sites.iter().map(|s| s.record().wire_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    #[test]
    fn register_and_lookup() {
        let mut db = MappingDb::new();
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([12, 0, 0, 1]),
            60,
        ));
        db.register(SiteEntry::single(
            Prefix::new(a([101, 5, 0, 0]), 16),
            a([13, 0, 0, 1]),
            60,
        ));
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.lookup(a([101, 1, 2, 3])).unwrap().etr_addr,
            a([12, 0, 0, 1])
        );
        assert_eq!(
            db.lookup(a([101, 5, 2, 3])).unwrap().etr_addr,
            a([13, 0, 0, 1])
        );
        assert!(db.lookup(a([99, 0, 0, 1])).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate EID-prefix registration")]
    fn duplicate_prefix_rejected() {
        let mut db = MappingDb::new();
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([12, 0, 0, 1]),
            60,
        ));
        // Same prefix, different ETR: ambiguous — must fail loudly.
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([13, 0, 0, 1]),
            60,
        ));
    }

    #[test]
    fn nested_prefixes_allowed() {
        // More-specific registrations are legitimate (LPM disambiguates);
        // only exact duplicates are rejected.
        let mut db = MappingDb::new();
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([12, 0, 0, 1]),
            60,
        ));
        db.register(SiteEntry::single(
            Prefix::new(a([101, 5, 0, 0]), 16),
            a([13, 0, 0, 1]),
            60,
        ));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn records_and_size() {
        let mut db = MappingDb::new();
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([12, 0, 0, 1]),
            60,
        ));
        let recs = db.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(db.wire_size(), recs[0].wire_len());
        assert_eq!(recs[0].prefix_len, 8);
    }
}
