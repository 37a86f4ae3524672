//! A longest-prefix-match table: a path-compressed binary trie in one
//! arena.
//!
//! Keys are [`Prefix`]es; values are generic. Every node carries its own
//! `(bits, len)`, so a run of single-child bits costs no nodes: a table
//! holding one /24 is two slots, the permanent /0 root and the leaf.
//! Nodes live in one `Vec` and name their children by `u32` index, so a
//! table is one allocation however many routes it holds, and dropping it
//! is one `free`. DESIGN.md §5 "LPM tables" has the layout and its costs.

use crate::addr::Prefix;
use lispwire::Ipv4Address;

/// "No child". Slot 0 is the root, which is nobody's child.
const NONE: u32 = 0;

#[derive(Debug, Clone)]
struct Node<V> {
    /// Network bits, host bits zero.
    bits: u32,
    /// Child slots, chosen by the address bit at position `len`.
    kids: [u32; 2],
    len: u8,
    value: Option<V>,
}

impl<V> Node<V> {
    fn new(bits: u32, len: u8, value: Option<V>) -> Self {
        Self {
            bits,
            kids: [NONE; 2],
            len,
            value,
        }
    }

    fn prefix(&self) -> Prefix {
        Prefix::new(Ipv4Address::from_u32(self.bits), self.len)
    }

    fn contains(&self, addr: u32) -> bool {
        (addr ^ self.bits) & Prefix::mask(self.len) == 0
    }

    /// The child slot on `addr`'s side ([`NONE`] below a /32).
    fn kid(&self, addr: u32) -> u32 {
        self.kids[bit(addr, self.len)]
    }
}

/// Bit `depth` of `addr`, most significant first; 0 at `depth == 32`.
fn bit(addr: u32, depth: u8) -> usize {
    ((u64::from(addr) << depth >> 31) & 1) as usize
}

/// The arena slot of a matched entry, from [`LpmTrie::lookup_slot`]: read
/// it back through [`LpmTrie::at`] or [`LpmTrie::at_mut`] without a
/// second walk. Any `insert` or `remove` invalidates it: the slot may
/// then be free, or hold another entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// A longest-prefix-match table from [`Prefix`] to `V`.
///
/// Slot 0, created by the first insert, is the /0 root and stays; every
/// other live node either holds a value or has two children. So the live
/// slots number at most 2·`len` + 1 after any insert/remove sequence.
#[derive(Debug, Clone)]
pub struct LpmTrie<V> {
    nodes: Vec<Node<V>>,
    /// Slots `remove` unlinked, reused by later inserts.
    free: Vec<u32>,
    len: usize,
}

impl<V> Default for LpmTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LpmTrie<V> {
    /// An empty table. Allocates nothing until the first insert.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live arena slots: the root, the entries and the value-less branch
    /// nodes between them. For the tests that pin `slots ≤ 2·len + 1`.
    #[doc(hidden)]
    pub fn slots(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self, node: Node<V>) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            return slot;
        }
        let slot = u32::try_from(self.nodes.len()).expect("fewer than 2^32 trie nodes");
        self.nodes.push(node);
        slot
    }

    /// Insert (or replace) the value for `prefix`. Returns the previous
    /// value if the prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let (addr, len) = (prefix.addr().to_u32(), prefix.len());
        if self.nodes.is_empty() {
            self.nodes.push(Node::new(0, 0, None));
        }
        // Descend while the child on `addr`'s side still covers `prefix`.
        let mut at = 0;
        let (side, kid) = loop {
            let node = &mut self.nodes[at];
            if node.len == len {
                let old = node.value.replace(value);
                self.len += usize::from(old.is_none());
                return old;
            }
            let side = bit(addr, node.len);
            let kid = node.kids[side];
            if kid == NONE {
                break (side, kid);
            }
            let below = &self.nodes[kid as usize];
            if below.len > len || !below.contains(addr) {
                break (side, kid);
            }
            at = kid as usize;
        };
        let fresh = if kid == NONE {
            self.alloc(Node::new(addr, len, Some(value)))
        } else {
            // `prefix` leaves the path above `kid`: either it covers `kid`
            // and takes its place, or the two hang off a value-less
            // branch node at their longest common prefix.
            let below = &self.nodes[kid as usize];
            let (kid_bits, kid_len) = (below.bits, below.len);
            let common = ((addr ^ kid_bits).leading_zeros() as u8)
                .min(len)
                .min(kid_len);
            let mut above = Node::new(addr & Prefix::mask(common), common, None);
            above.kids[bit(kid_bits, common)] = kid;
            if common == len {
                above.value = Some(value);
            } else {
                above.kids[bit(addr, common)] = self.alloc(Node::new(addr, len, Some(value)));
            }
            self.alloc(above)
        };
        self.nodes[at].kids[side] = fresh;
        self.len += 1;
        None
    }

    /// The slot of the node that is exactly `prefix`, valued or not.
    fn find(&self, prefix: &Prefix) -> Option<usize> {
        let (addr, len) = (prefix.addr().to_u32(), prefix.len());
        let mut at = 0;
        loop {
            // Bit tests alone steer the walk; only its end is compared.
            let node = self.nodes.get(at)?;
            if node.len >= len {
                return (node.len == len && node.bits == addr).then_some(at);
            }
            let kid = node.kid(addr);
            if kid == NONE {
                return None;
            }
            at = kid as usize;
        }
    }

    /// Exact-match lookup of a prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        self.nodes[self.find(prefix)?].value.as_ref()
    }

    /// Exact-match mutable lookup of a prefix.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let at = self.find(prefix)?;
        self.nodes[at].value.as_mut()
    }

    /// Remove a prefix, returning its value. The emptied leaf is unlinked
    /// and a value-less parent left with one child is spliced out, so a
    /// churning table holds no more slots than its live entries need.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let (addr, len) = (prefix.addr().to_u32(), prefix.len());
        let (mut grand, mut parent, mut at) = (0, 0, 0);
        loop {
            let node = self.nodes.get(at)?;
            if node.len >= len {
                break;
            }
            let kid = node.kid(addr);
            if kid == NONE {
                return None;
            }
            (grand, parent, at) = (parent, at, kid as usize);
        }
        let node = &mut self.nodes[at];
        if node.len != len || node.bits != addr {
            return None;
        }
        let old = node.value.take()?;
        self.len -= 1;
        // Unlinking a leaf can leave its parent, until now a two-child
        // branch, with one child; the grandparent keeps its child count.
        if at != 0 && self.splice(parent, at) && parent != 0 {
            self.splice(grand, parent);
        }
        Some(old)
    }

    /// If `at` holds no value and has fewer than two children, hand its
    /// only child (or none) to `above` in its place and free the slot.
    fn splice(&mut self, above: usize, at: usize) -> bool {
        let node = &self.nodes[at];
        let [left, right] = node.kids;
        if node.value.is_some() || (left != NONE && right != NONE) {
            return false;
        }
        let side = bit(node.bits, self.nodes[above].len);
        self.nodes[above].kids[side] = left | right;
        self.free.push(at as u32);
        true
    }

    /// Longest-prefix-match lookup returning the arena slot of the most
    /// specific installed prefix containing `addr`.
    pub fn lookup_slot(&self, addr: Ipv4Address) -> Option<Slot> {
        let addr = addr.to_u32();
        let mut best = None;
        let mut at = 0;
        while let Some(node) = self.nodes.get(at as usize) {
            if !node.contains(addr) {
                break;
            }
            if node.value.is_some() {
                best = Some(Slot(at));
            }
            at = node.kid(addr);
            if at == NONE {
                break;
            }
        }
        best
    }

    /// The entry in a slot [`LpmTrie::lookup_slot`] returned.
    ///
    /// # Panics
    /// Panics if the slot no longer holds an entry.
    pub fn at(&self, slot: Slot) -> (Prefix, &V) {
        let node = &self.nodes[slot.0 as usize];
        (node.prefix(), node.value.as_ref().expect("stale slot"))
    }

    /// The entry in a slot [`LpmTrie::lookup_slot`] returned, mutably.
    ///
    /// # Panics
    /// Panics if the slot no longer holds an entry.
    pub fn at_mut(&mut self, slot: Slot) -> (Prefix, &mut V) {
        let node = &mut self.nodes[slot.0 as usize];
        (node.prefix(), node.value.as_mut().expect("stale slot"))
    }

    /// Longest-prefix-match lookup: the value of the most specific
    /// installed prefix containing `addr`, with its prefix.
    pub fn lookup(&self, addr: Ipv4Address) -> Option<(Prefix, &V)> {
        self.lookup_slot(addr).map(|slot| self.at(slot))
    }

    /// Shorthand: just the matched value.
    pub fn lookup_value(&self, addr: Ipv4Address) -> Option<&V> {
        let slot = self.lookup_slot(addr)?;
        self.nodes[slot.0 as usize].value.as_ref()
    }

    /// Every `(prefix, value)` pair in pre-order, which is ascending
    /// `(addr, len)`: a prefix before the prefixes it covers, the 0 side
    /// before the 1 side. Borrows the table; allocates nothing.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        // A node with children is a /31 at most and its level is no more
        // than its length. Under one at level k wait at most k siblings,
        // of it and its ancestors below the root, and its two children.
        let mut stack = [NONE; 33];
        let mut depth = usize::from(!self.nodes.is_empty());
        std::iter::from_fn(move || {
            while depth > 0 {
                depth -= 1;
                let node = &self.nodes[stack[depth] as usize];
                for kid in [node.kids[1], node.kids[0]] {
                    if kid != NONE {
                        stack[depth] = kid;
                        depth += 1;
                    }
                }
                if let Some(value) = &node.value {
                    return Some((node.prefix(), value));
                }
            }
            None
        })
    }

    /// Collect all entries, in [`LpmTrie::iter`] order.
    pub fn entries(&self) -> Vec<(Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: [u8; 4]) -> Ipv4Address {
        Ipv4Address(s)
    }
    fn p(s: [u8; 4], len: u8) -> Prefix {
        Prefix::new(a(s), len)
    }

    #[test]
    fn insert_get_remove() {
        let mut t = LpmTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p([10, 0, 0, 0], 8), "ten"), None);
        assert_eq!(t.insert(p([10, 0, 0, 0], 8), "TEN"), Some("ten"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p([10, 0, 0, 0], 8)), Some(&"TEN"));
        assert_eq!(t.get(&p([10, 0, 0, 0], 9)), None);
        assert_eq!(t.remove(&p([10, 0, 0, 0], 8)), Some("TEN"));
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_wins() {
        let mut t = LpmTrie::new();
        t.insert(Prefix::DEFAULT, 0u32);
        t.insert(p([10, 0, 0, 0], 8), 1);
        t.insert(p([10, 1, 0, 0], 16), 2);
        t.insert(p([10, 1, 2, 0], 24), 3);
        assert_eq!(t.lookup_value(a([11, 0, 0, 1])), Some(&0));
        assert_eq!(t.lookup_value(a([10, 9, 9, 9])), Some(&1));
        assert_eq!(t.lookup_value(a([10, 1, 9, 9])), Some(&2));
        assert_eq!(t.lookup_value(a([10, 1, 2, 9])), Some(&3));
        let (matched, v) = t.lookup(a([10, 1, 2, 9])).unwrap();
        assert_eq!(matched, p([10, 1, 2, 0], 24));
        assert_eq!(*v, 3);
    }

    #[test]
    fn no_default_no_match() {
        let mut t = LpmTrie::new();
        t.insert(p([10, 0, 0, 0], 8), ());
        assert!(t.lookup(a([11, 0, 0, 1])).is_none());
    }

    #[test]
    fn host_routes() {
        let mut t = LpmTrie::new();
        t.insert(Prefix::host(a([10, 0, 0, 1])), "h1");
        t.insert(Prefix::host(a([10, 0, 0, 2])), "h2");
        assert_eq!(t.lookup_value(a([10, 0, 0, 1])), Some(&"h1"));
        assert_eq!(t.lookup_value(a([10, 0, 0, 2])), Some(&"h2"));
        assert_eq!(t.lookup_value(a([10, 0, 0, 3])), None);
    }

    #[test]
    fn entries_enumerates_all() {
        let mut t = LpmTrie::new();
        let prefixes = [
            p([10, 0, 0, 0], 8),
            p([11, 0, 0, 0], 8),
            p([10, 128, 0, 0], 9),
        ];
        for (i, pre) in prefixes.iter().enumerate() {
            t.insert(*pre, i);
        }
        let entries = t.entries();
        assert_eq!(entries.len(), 3);
        for pre in &prefixes {
            assert!(entries.iter().any(|(q, _)| q == pre));
        }
    }

    #[test]
    fn default_only() {
        let mut t = LpmTrie::new();
        t.insert(Prefix::DEFAULT, 9u8);
        assert_eq!(t.lookup_value(a([255, 255, 255, 255])), Some(&9));
        assert_eq!(t.lookup_value(a([0, 0, 0, 0])), Some(&9));
    }

    #[test]
    fn small_tables_are_small() {
        let mut t = LpmTrie::new();
        assert_eq!((t.nodes.capacity(), t.free.capacity()), (0, 0));
        assert_eq!(t.slots(), 0);
        assert_eq!(t.lookup_value(a([10, 0, 0, 1])), None);
        assert_eq!(t.remove(&Prefix::DEFAULT), None);
        assert_eq!(t.iter().count(), 0);
        t.insert(Prefix::DEFAULT, 0u32);
        assert_eq!(t.slots(), 1, "a default route is the root itself");
        let mut t = LpmTrie::new();
        t.insert(p([10, 1, 2, 0], 24), 0u32);
        assert_eq!(t.slots(), 2, "one /24 is the root and a leaf");
    }

    #[test]
    fn churn_reuses_freed_slots() {
        let mut t = LpmTrie::new();
        for i in 0..8u8 {
            t.insert(p([10, i, 0, 0], 16), i);
        }
        let arena = t.nodes.len();
        for round in 1..=100u8 {
            for i in 0..8u8 {
                assert!(t
                    .remove(&p([10, i, round - 1, 0], 16 + (round - 1) % 9))
                    .is_some());
                t.insert(p([10, i, round, 0], 16 + round % 9), i);
            }
            assert!(t.nodes.len() <= arena, "the arena grew under churn");
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn slot_reads_back_the_match() {
        let mut t = LpmTrie::new();
        t.insert(p([10, 0, 0, 0], 8), 1u32);
        t.insert(p([10, 1, 0, 0], 16), 2);
        let slot = t.lookup_slot(a([10, 1, 2, 3])).unwrap();
        assert_eq!(t.at(slot), (p([10, 1, 0, 0], 16), &2));
        *t.at_mut(slot).1 += 40;
        assert_eq!(t.get(&p([10, 1, 0, 0], 16)), Some(&42));
        assert_eq!(t.lookup_slot(a([11, 0, 0, 0])), None);
    }
}
