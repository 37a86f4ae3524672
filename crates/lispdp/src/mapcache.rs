//! The ITR map-cache: EID-prefix → locator set, with TTL aging and a
//! bounded capacity evicted under a pluggable, deterministic policy.
//!
//! The paper's weakness 1 ("a hit might not necessarily be found, either
//! because the mapping has aged out, or simply because it was never
//! requested before") is exactly what this structure models; experiment
//! E6 sweeps its TTL against workload skew, E12 sweeps capacity and
//! eviction policy under adversarial load (DESIGN.md §10), and the repo
//! benchmark's `lispdp.mapcache.*` cells track its lookup and
//! insert/evict cost (DESIGN.md §5).

use inet::{LpmTrie, Prefix};
use lispwire::lispctl::MapRecord;
use lispwire::Ipv4Address;
use netsim::Ns;

/// How a bounded [`MapCache`] chooses an eviction victim when full.
///
/// Every policy is deterministic: ties break on the prefix itself, so a
/// replayed simulation evicts the same entries in the same order
/// (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Never evict — the cache grows without bound (the pre-E12
    /// behaviour; E1–E11 run with this so their goldens are stable).
    Unbounded,
    /// Evict the least-recently-used entry (ties: lowest prefix).
    Lru,
    /// Evict the least-frequently-used entry (ties: least recently
    /// used, then lowest prefix). Frequency survives refresh-inserts,
    /// unlike the per-incarnation [`CacheEntry::hits`] counter.
    Lfu,
    /// Evict the entry closest to TTL expiry (ties: lowest prefix).
    Ttl,
}

impl EvictionPolicy {
    /// Short lower-case label for report tables (`"lru"`, `"lfu"`, …).
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::Unbounded => "unbounded",
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::Ttl => "ttl",
        }
    }
}

/// Declarative map-cache configuration, threaded from
/// `ScenarioSpec`/`SiteSpec` down to every xTR's [`MapCache`].
///
/// The default is unbounded with the lazy expiry sweep off — exactly the
/// pre-E12 cache behaviour, which is what keeps the E1–E11 goldens
/// byte-identical (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Maximum number of entries (ignored when `policy` is
    /// [`EvictionPolicy::Unbounded`]).
    pub capacity: usize,
    /// Eviction policy applied when an insert would exceed `capacity`.
    pub policy: EvictionPolicy,
    /// When set, every lookup first reaps all expired entries (amortised
    /// behind an earliest-expiry watermark, so the common case is a
    /// single comparison). Off by default: the sweep changes *when*
    /// expirations are counted, which would drift the E6 golden.
    pub lazy_expiry_sweep: bool,
}

impl Default for CacheSpec {
    fn default() -> Self {
        CacheSpec {
            capacity: usize::MAX,
            policy: EvictionPolicy::Unbounded,
            lazy_expiry_sweep: false,
        }
    }
}

impl CacheSpec {
    /// A bounded cache with the given capacity and policy (sweep off).
    pub fn bounded(capacity: usize, policy: EvictionPolicy) -> Self {
        CacheSpec {
            capacity,
            policy,
            lazy_expiry_sweep: false,
        }
    }

    /// Enable the lazy expiry sweep on lookup.
    pub fn with_sweep(mut self) -> Self {
        self.lazy_expiry_sweep = true;
        self
    }

    /// Short label for report tables: `"unbounded"` or `"<cap> <policy>"`.
    pub fn label(&self) -> String {
        match self.policy {
            EvictionPolicy::Unbounded => "unbounded".to_string(),
            p => format!("{} {}", self.capacity, p.label()),
        }
    }
}

/// One cached mapping.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The mapping record (locator set with priorities/weights).
    pub record: MapRecord,
    /// When the entry was installed.
    pub inserted: Ns,
    /// When it expires.
    pub expires: Ns,
    /// Last lookup that hit it (drives LRU eviction).
    pub last_used: Ns,
    /// Number of hits since this incarnation was installed (reset on
    /// refresh-insert).
    pub hits: u64,
    /// Lifetime hit count for the prefix — survives refresh-inserts and
    /// drives [`EvictionPolicy::Lfu`] victim selection.
    pub freq: u64,
}

impl CacheEntry {
    /// The prefix this entry covers.
    pub fn prefix(&self) -> Prefix {
        Prefix::new(self.record.eid_prefix, self.record.prefix_len)
    }
}

/// The map-cache.
#[derive(Debug, Clone)]
pub struct MapCache {
    trie: LpmTrie<CacheEntry>,
    spec: CacheSpec,
    /// Watermark for the lazy sweep: the earliest `expires` of any entry
    /// inserted since the last sweep. `None` means nothing can possibly
    /// be expired, so a swept lookup costs one comparison.
    earliest_expiry: Option<Ns>,
    /// Lookup hits.
    pub hit_count: u64,
    /// Lookup misses (no entry or expired).
    pub miss_count: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because they expired.
    pub expirations: u64,
    /// Entries removed because every locator became unreachable (RLOC
    /// probing; see [`MapCache::invalidate_rloc`]).
    pub invalidations: u64,
}

impl MapCache {
    /// A cache holding at most `max_entries` mappings, evicted LRU —
    /// the historical constructor, equivalent to
    /// `MapCache::from_spec(CacheSpec::bounded(max_entries, Lru))`.
    pub fn new(max_entries: usize) -> Self {
        Self::from_spec(CacheSpec::bounded(max_entries, EvictionPolicy::Lru))
    }

    /// An unbounded cache (no eviction, no sweep).
    pub fn unbounded() -> Self {
        Self::from_spec(CacheSpec::default())
    }

    /// A cache configured by `spec`.
    pub fn from_spec(spec: CacheSpec) -> Self {
        Self {
            trie: LpmTrie::new(),
            spec,
            earliest_expiry: None,
            hit_count: 0,
            miss_count: 0,
            evictions: 0,
            expirations: 0,
            invalidations: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn spec(&self) -> &CacheSpec {
        &self.spec
    }

    /// Number of live entries (including not-yet-purged expired ones).
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Install (or refresh) a mapping at time `now`. The record TTL is in
    /// minutes, per the LISP control format.
    pub fn insert(&mut self, record: MapRecord, now: Ns) {
        let prefix = Prefix::new(record.eid_prefix, record.prefix_len);
        let ttl = Ns::from_secs(u64::from(record.ttl_minutes) * 60);
        // Lifetime frequency survives a refresh of the same prefix.
        let refreshed = self.trie.get(&prefix).map(|e| e.freq);
        if self.spec.policy != EvictionPolicy::Unbounded
            && refreshed.is_none()
            && self.trie.len() >= self.spec.capacity
        {
            self.evict_one();
        }
        let expires = now + ttl;
        self.earliest_expiry = Some(match self.earliest_expiry {
            Some(e) => e.min(expires),
            None => expires,
        });
        self.trie.insert(
            prefix,
            CacheEntry {
                record,
                inserted: now,
                expires,
                last_used: now,
                hits: 0,
                freq: refreshed.unwrap_or(0),
            },
        );
    }

    /// Remove one victim per the configured policy. Ties always break on
    /// the prefix so eviction order is deterministic. A scan of the live
    /// entries, no victim index: the trie holds at most 2·capacity + 1
    /// slots however long the cache has churned (DESIGN.md §10).
    fn evict_one(&mut self) {
        let entries = self.trie.iter();
        let victim = match self.spec.policy {
            EvictionPolicy::Unbounded => return,
            EvictionPolicy::Lru => entries.min_by_key(|(p, e)| (e.last_used, *p)),
            EvictionPolicy::Lfu => entries.min_by_key(|(p, e)| (e.freq, e.last_used, *p)),
            EvictionPolicy::Ttl => entries.min_by_key(|(p, e)| (e.expires, *p)),
        };
        if let Some(p) = victim.map(|(p, _)| p) {
            self.trie.remove(&p);
            self.evictions += 1;
        }
    }

    /// Look up the mapping for `eid` at time `now`. Expired entries count
    /// as misses (and are removed). With
    /// [`CacheSpec::lazy_expiry_sweep`] set, *all* expired entries are
    /// reaped first, so stale state can't linger unobserved even under
    /// [`EvictionPolicy::Unbounded`].
    pub fn lookup(&mut self, eid: Ipv4Address, now: Ns) -> Option<&MapRecord> {
        if self.spec.lazy_expiry_sweep {
            if let Some(earliest) = self.earliest_expiry {
                if earliest <= now {
                    self.purge_expired(now);
                }
            }
        }
        let Some(slot) = self.trie.lookup_slot(eid) else {
            self.miss_count += 1;
            return None;
        };
        // One walk: the expiry test and the touch both go through the
        // matched slot. (Tested on a shared borrow first, because the
        // borrow that is returned lasts to the end of the function.)
        let (prefix, entry) = self.trie.at(slot);
        if entry.expires <= now {
            self.trie.remove(&prefix);
            self.expirations += 1;
            self.miss_count += 1;
            return None;
        }
        self.hit_count += 1;
        let (_, entry) = self.trie.at_mut(slot);
        entry.last_used = now;
        entry.hits += 1;
        entry.freq += 1;
        Some(&entry.record)
    }

    /// Remove every expired entry at time `now` and recompute the sweep
    /// watermark.
    pub fn purge_expired(&mut self, now: Ns) {
        let expired: Vec<Prefix> = self
            .trie
            .iter()
            .filter(|(_, e)| e.expires <= now)
            .map(|(p, _)| p)
            .collect();
        for p in expired {
            self.trie.remove(&p);
            self.expirations += 1;
        }
        self.earliest_expiry = self.trie.iter().map(|(_, e)| e.expires).min();
    }

    /// Remove a specific prefix.
    pub fn remove(&mut self, prefix: &Prefix) -> bool {
        self.trie.remove(prefix).is_some()
    }

    /// Declare `rloc` unreachable (an RLOC-probe timeout): mark it
    /// unreachable in every locator set that references it, and remove
    /// entries left without any usable locator — the next packet toward
    /// them misses and triggers a fresh resolution. Returns the number
    /// of entries removed.
    pub fn invalidate_rloc(&mut self, rloc: Ipv4Address) -> usize {
        let touched: Vec<Prefix> = self
            .trie
            .iter()
            .filter(|(_, e)| e.record.locators.iter().any(|l| l.rloc == rloc))
            .map(|(p, _)| p)
            .collect();
        let mut removed = 0;
        for prefix in touched {
            let entry = self.trie.get_mut(&prefix).expect("entry just listed");
            for l in &mut entry.record.locators {
                if l.rloc == rloc {
                    l.reachable = false;
                }
            }
            if entry.record.best_locator().is_none() {
                self.trie.remove(&prefix);
                self.invalidations += 1;
                removed += 1;
            }
        }
        removed
    }

    /// Observed hit ratio so far (0 when no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hit_count + self.miss_count;
        if total == 0 {
            0.0
        } else {
            self.hit_count as f64 / total as f64
        }
    }

    /// All live entries, in ascending prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &CacheEntry)> + '_ {
        self.trie.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lispwire::lispctl::Locator;

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn record(prefix: [u8; 4], len: u8, ttl_minutes: u16) -> MapRecord {
        MapRecord {
            eid_prefix: a(prefix),
            prefix_len: len,
            ttl_minutes,
            locators: vec![Locator::new(a([12, 0, 0, 1]), 1, 100)],
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = MapCache::new(10);
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::ZERO).is_none());
        c.insert(record([101, 0, 0, 0], 8, 5), Ns::ZERO);
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(1)).is_some());
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(1)).is_none());
        assert_eq!(c.hit_count, 1);
        assert_eq!(c.miss_count, 2);
        assert!((c.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ttl_expiry() {
        let mut c = MapCache::new(10);
        c.insert(record([101, 0, 0, 0], 8, 1), Ns::ZERO); // 1 minute
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(59)).is_some());
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(60)).is_none());
        assert_eq!(c.expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = MapCache::new(2);
        c.insert(record([101, 0, 0, 0], 8, 60), Ns::ZERO);
        c.insert(record([102, 0, 0, 0], 8, 60), Ns::ZERO);
        // Touch 101 so 102 becomes LRU.
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(10)).is_some());
        c.insert(record([103, 0, 0, 0], 8, 60), Ns::from_secs(20));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions, 1);
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(21)).is_none());
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(21)).is_some());
        assert!(c.lookup(a([103, 1, 1, 1]), Ns::from_secs(21)).is_some());
    }

    #[test]
    fn lfu_eviction_order() {
        let mut c = MapCache::from_spec(CacheSpec::bounded(2, EvictionPolicy::Lfu));
        c.insert(record([101, 0, 0, 0], 8, 60), Ns::ZERO);
        c.insert(record([102, 0, 0, 0], 8, 60), Ns::ZERO);
        // 101 is hit twice, 102 once — despite 102 being more recent.
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(1)).is_some());
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(2)).is_some());
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(3)).is_some());
        c.insert(record([103, 0, 0, 0], 8, 60), Ns::from_secs(4));
        assert_eq!(c.evictions, 1);
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(5)).is_none());
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(5)).is_some());
    }

    #[test]
    fn lfu_frequency_survives_refresh() {
        let mut c = MapCache::from_spec(CacheSpec::bounded(2, EvictionPolicy::Lfu));
        c.insert(record([101, 0, 0, 0], 8, 60), Ns::ZERO);
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(1)).is_some());
        // Refresh resets per-incarnation hits but not lifetime freq.
        c.insert(record([101, 0, 0, 0], 8, 60), Ns::from_secs(2));
        let (_, e) = c.iter().next().unwrap();
        assert_eq!(e.hits, 0);
        assert_eq!(e.freq, 1);
        // 102 (freq 0) is the LFU victim even though inserted later.
        c.insert(record([102, 0, 0, 0], 8, 60), Ns::from_secs(3));
        c.insert(record([103, 0, 0, 0], 8, 60), Ns::from_secs(4));
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(5)).is_none());
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(5)).is_some());
    }

    #[test]
    fn ttl_eviction_order() {
        let mut c = MapCache::from_spec(CacheSpec::bounded(2, EvictionPolicy::Ttl));
        c.insert(record([101, 0, 0, 0], 8, 5), Ns::ZERO); // expires first
        c.insert(record([102, 0, 0, 0], 8, 60), Ns::ZERO);
        c.insert(record([103, 0, 0, 0], 8, 60), Ns::from_secs(1));
        assert_eq!(c.evictions, 1);
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(2)).is_none());
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(2)).is_some());
        assert!(c.lookup(a([103, 1, 1, 1]), Ns::from_secs(2)).is_some());
    }

    #[test]
    fn reinsert_refreshes_ttl() {
        let mut c = MapCache::new(10);
        c.insert(record([101, 0, 0, 0], 8, 1), Ns::ZERO);
        c.insert(record([101, 0, 0, 0], 8, 1), Ns::from_secs(50));
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(100)).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn purge_expired_bulk() {
        let mut c = MapCache::new(10);
        c.insert(record([101, 0, 0, 0], 8, 1), Ns::ZERO);
        c.insert(record([102, 0, 0, 0], 8, 2), Ns::ZERO);
        c.purge_expired(Ns::from_secs(61));
        assert_eq!(c.len(), 1);
        assert_eq!(c.expirations, 1);
    }

    // Satellite regression: without the sweep, an expired entry that is
    // never rematched (a more-specific sibling keeps winning LPM, or it
    // is simply never looked up) stays resident forever under Unbounded.
    // With the sweep, *any* later lookup reaps it.
    #[test]
    fn lazy_sweep_reaps_unobserved_expired_entries() {
        let mut swept = MapCache::from_spec(CacheSpec::default().with_sweep());
        let mut unswept = MapCache::unbounded();
        for c in [&mut swept, &mut unswept] {
            c.insert(record([101, 0, 0, 0], 8, 1), Ns::ZERO); // 1 minute
            c.insert(record([102, 0, 0, 0], 8, 60), Ns::ZERO);
        }
        // Look up an *unrelated* EID long after 101/8 expired.
        let t = Ns::from_secs(120);
        assert!(swept.lookup(a([102, 1, 1, 1]), t).is_some());
        assert!(unswept.lookup(a([102, 1, 1, 1]), t).is_some());
        assert_eq!(swept.len(), 1, "sweep reaps the stale entry");
        assert_eq!(swept.expirations, 1);
        assert_eq!(unswept.len(), 2, "without sweep the stale entry lingers");
        assert_eq!(unswept.expirations, 0);
    }

    #[test]
    fn lazy_sweep_watermark_recovers_after_purge() {
        let mut c = MapCache::from_spec(CacheSpec::default().with_sweep());
        c.insert(record([101, 0, 0, 0], 8, 1), Ns::ZERO);
        c.insert(record([102, 0, 0, 0], 8, 2), Ns::ZERO);
        assert!(c.lookup(a([102, 1, 1, 1]), Ns::from_secs(61)).is_some());
        assert_eq!(c.expirations, 1); // 101/8 swept
                                      // Watermark now tracks 102/8's expiry; a later lookup reaps it too.
        assert!(c.lookup(a([103, 1, 1, 1]), Ns::from_secs(121)).is_none());
        assert!(c.is_empty());
        assert_eq!(c.expirations, 2);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut c = MapCache::unbounded();
        for i in 0..64u8 {
            c.insert(record([i + 1, 0, 0, 0], 8, 60), Ns::from_secs(u64::from(i)));
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.evictions, 0);
    }

    // Regression: `LpmTrie::remove` used to leave the emptied branch in
    // place, so a churning bounded cache kept a dead branch for every
    // prefix it had ever held and each eviction scanned all of them.
    #[test]
    fn churn_leaves_no_dead_branches() {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::Ttl,
        ] {
            let mut c = MapCache::from_spec(CacheSpec::bounded(32, policy));
            let prefix = |i: u32| (0x6400_0000 + (i << 8)).to_be_bytes();
            for i in 0..10_000 {
                c.insert(record(prefix(i), 24, 60), Ns::from_secs(u64::from(i)));
            }
            assert_eq!(c.len(), 32);
            assert_eq!(c.evictions, 9_968);
            assert!(c.trie.slots() <= 65, "{} live slots", c.trie.slots());
            // Never looked up, so under every policy the oldest goes first
            // and the survivors are the last 32 inserted.
            let survivors: Vec<Prefix> = c.iter().map(|(p, _)| p).collect();
            let newest: Vec<Prefix> = (9_968..10_000)
                .map(|i| Prefix::new(a(prefix(i)), 24))
                .collect();
            assert_eq!(survivors, newest);
        }
    }

    #[test]
    fn invalidate_rloc_removes_orphaned_entries() {
        let mut c = MapCache::new(10);
        // 101/8 reachable only via 12.0.0.1; 102/8 has a backup locator.
        c.insert(record([101, 0, 0, 0], 8, 60), Ns::ZERO);
        let mut multi = record([102, 0, 0, 0], 8, 60);
        multi.locators.push(Locator::new(a([13, 0, 0, 1]), 2, 100));
        c.insert(multi, Ns::ZERO);
        let removed = c.invalidate_rloc(a([12, 0, 0, 1]));
        assert_eq!(removed, 1);
        assert_eq!(c.invalidations, 1);
        // 101/8 is gone (next packet misses and re-resolves).
        assert!(c.lookup(a([101, 1, 1, 1]), Ns::from_secs(1)).is_none());
        // 102/8 survives on its backup locator.
        let rec = c.lookup(a([102, 1, 1, 1]), Ns::from_secs(1)).unwrap();
        assert_eq!(rec.best_locator().unwrap().rloc, a([13, 0, 0, 1]));
    }

    #[test]
    fn longest_prefix_semantics() {
        let mut c = MapCache::new(10);
        c.insert(record([101, 0, 0, 0], 8, 60), Ns::ZERO);
        let mut specific = record([101, 2, 0, 0], 16, 60);
        specific.locators = vec![Locator::new(a([13, 0, 0, 9]), 1, 100)];
        c.insert(specific, Ns::ZERO);
        let got = c.lookup(a([101, 2, 3, 4]), Ns::from_secs(1)).unwrap();
        assert_eq!(got.locators[0].rloc, a([13, 0, 0, 9]));
        let got = c.lookup(a([101, 9, 3, 4]), Ns::from_secs(1)).unwrap();
        assert_eq!(got.locators[0].rloc, a([12, 0, 0, 1]));
    }
}
