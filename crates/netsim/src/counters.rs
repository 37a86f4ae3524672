//! Interned global counters (DESIGN.md §3).
//!
//! The engine used to keep counters in a `BTreeMap<String, u64>`, which
//! cost one `String` allocation plus an ordered-map walk on **every**
//! increment — on the hot path of every drop, miss, and delivery
//! statistic in the workspace. Counters are now a dense
//! `Vec<u64>` indexed by interned [`CounterId`]s: string handling
//! happens only at registration and reporting time, and the hottest
//! call sites hold a `CounterId` and pay a single bounds-checked add.

// Audited non-conversion: `index` is a pure name-to-id lookup (get/insert
// only, never iterated). Iteration and report order come from the
// registration-ordered `names`/`values` Vecs, and `sorted()` sorts by name,
// so map layout cannot reach traces. HashMap keeps the by-name calls
// (`register`, `get`, `id_of`) O(1): nodes register at start and on each
// `LazyCounter`'s first use, and reports read counters by name.
// detlint: allow-file(R1) -- name-to-id index: keyed get/insert only, never iterated; report order comes from the registration-ordered Vecs
use std::collections::HashMap;

/// Handle to one interned counter (cheap to copy, index into the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(pub(crate) u32);

/// The engine's counter table: dense values plus a name interner.
///
/// Nodes count by [`CounterId`] (from [`Counters::register`]) — a plain
/// array add; [`LazyCounter`] interns on first use for call sites that
/// cannot pre-register.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    values: Vec<u64>,
    names: Vec<String>,
    index: HashMap<String, CounterId>,
}

impl Counters {
    /// An empty counter table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (idempotent).
    pub fn register(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = CounterId(u32::try_from(self.values.len()).expect("too many counters"));
        self.values.push(0);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Add `n` to the counter behind `id`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id.0 as usize] += n;
    }

    /// Value behind `id`.
    #[inline]
    pub fn value(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Value of the counter called `name` (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map_or(0, |&id| self.values[id.0 as usize])
    }

    /// The id behind `name`, if registered.
    pub fn id_of(&self, name: &str) -> Option<CounterId> {
        self.index.get(name).copied()
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no counter has been registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }

    /// All `(name, value)` pairs sorted by name — the stable order used
    /// for reporting and determinism comparisons.
    pub fn sorted(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self.iter().collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }
}

/// A counter handle that interns its name on first use and then sticks
/// to the zero-lookup id path — the pattern for hot call sites that
/// cannot easily pre-register in `on_start`:
///
/// ```ignore
/// struct MyNode { drops: LazyCounter, /* … */ }
/// // in a handler:
/// self.drops.add(ctx, "mynode.drops", 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyCounter(Option<CounterId>);

impl LazyCounter {
    /// A handle that will intern on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter called `name`, interning it the first
    /// time and using the cached [`CounterId`] afterwards.
    #[inline]
    pub fn add<P: crate::payload::Payload>(
        &mut self,
        ctx: &mut crate::node::Ctx<'_, P>,
        name: &str,
        n: u64,
    ) {
        let id = match self.0 {
            Some(id) => id,
            None => {
                let id = ctx.counter_id(name);
                self.0 = Some(id);
                id
            }
        };
        ctx.count_id(id, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut c = Counters::new();
        let a = c.register("a");
        let b = c.register("b");
        assert_ne!(a, b);
        assert_eq!(c.register("a"), a);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn add_by_id_and_name_share_slots() {
        let mut c = Counters::new();
        let id = c.register("drops");
        c.add(id, 2);
        let again = c.register("drops");
        c.add(again, 3);
        assert_eq!(c.value(id), 5);
        assert_eq!(c.get("drops"), 5);
        assert_eq!(c.id_of("drops"), Some(id));
    }

    #[test]
    fn unregistered_reads_as_zero() {
        let c = Counters::new();
        assert_eq!(c.get("nope"), 0);
        assert_eq!(c.id_of("nope"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn sorted_is_by_name() {
        let mut c = Counters::new();
        for (name, n) in [("zeta", 1), ("alpha", 2), ("mid", 3)] {
            let id = c.register(name);
            c.add(id, n);
        }
        let s = c.sorted();
        assert_eq!(s, vec![("alpha", 2), ("mid", 3), ("zeta", 1)]);
    }
}
