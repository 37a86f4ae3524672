//! Property tests: the LPM trie must agree with a linear-scan oracle on
//! arbitrary route tables and arbitrary insert/remove histories, and
//! prefix algebra must be self-consistent.

use inet::{LpmTrie, Prefix};
use lispwire::Ipv4Address;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(Ipv4Address::from_u32(addr), len))
}

/// Prefixes of any length around a few nested and sibling addresses, so
/// that op sequences hit, nest and split far more often than uniform ones.
fn arb_clustered_prefix() -> impl Strategy<Value = Prefix> {
    let seeds = vec![
        0x0000_0000,
        0x0a00_0000,
        0x0a01_0000,
        0x0a01_0200,
        0x0a01_0201,
        0x0a01_0202,
        0x0a80_0000,
        0x0b00_0000,
        0xffff_ffff,
    ];
    (prop::sample::select(seeds), 0u8..=32)
        .prop_map(|(addr, len)| Prefix::new(Ipv4Address::from_u32(addr), len))
}

/// Oracle: longest matching prefix by linear scan.
fn oracle_lookup(table: &BTreeMap<Prefix, u32>, addr: Ipv4Address) -> Option<(Prefix, u32)> {
    table
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    #[test]
    fn trie_matches_linear_oracle(
        routes in prop::collection::btree_map(arb_prefix(), any::<u32>(), 0..40),
        queries in prop::collection::vec(any::<u32>(), 0..60),
    ) {
        let mut trie = LpmTrie::new();
        for (p, v) in &routes {
            trie.insert(*p, *v);
        }
        prop_assert_eq!(trie.len(), routes.len());
        for q in queries {
            let addr = Ipv4Address::from_u32(q);
            let got = trie.lookup(addr).map(|(p, v)| (p, *v));
            let want = oracle_lookup(&routes, addr);
            match (got, want) {
                (None, None) => {}
                (Some((gp, gv)), Some((wp, wv))) => {
                    // Same specificity; values must match when lengths match
                    // (duplicate-length different-prefix cannot both contain addr).
                    prop_assert_eq!(gp.len(), wp.len());
                    prop_assert_eq!(gv, wv);
                }
                other => prop_assert!(false, "mismatch: {:?}", other),
            }
        }
    }

    #[test]
    fn insert_remove_restores(routes in prop::collection::btree_map(arb_prefix(), any::<u32>(), 1..20)) {
        let mut trie = LpmTrie::new();
        for (p, v) in &routes {
            trie.insert(*p, *v);
        }
        let keys: Vec<Prefix> = routes.keys().copied().collect();
        // Remove half, re-query the rest.
        let (gone, kept) = keys.split_at(keys.len() / 2);
        for p in gone {
            prop_assert_eq!(trie.remove(p), Some(routes[p]));
        }
        for p in gone {
            prop_assert_eq!(trie.get(p), None);
        }
        for p in kept {
            prop_assert_eq!(trie.get(p), Some(&routes[p]));
        }
        prop_assert_eq!(trie.len(), kept.len());
    }

    #[test]
    fn prefix_contains_consistent_with_covers(p1 in arb_prefix(), p2 in arb_prefix()) {
        if p1.covers(&p2) {
            // Every address in p2 is in p1; check its network and a probe.
            prop_assert!(p1.contains(p2.addr()));
            prop_assert!(p1.contains(p2.nth_host(1)));
        }
        // covers is a partial order: reflexive and antisymmetric.
        prop_assert!(p1.covers(&p1));
        if p1.covers(&p2) && p2.covers(&p1) {
            prop_assert_eq!(p1, p2);
        }
    }

    #[test]
    fn nth_host_stays_inside(p in arb_prefix(), i in any::<u32>()) {
        prop_assert!(p.contains(p.nth_host(i)));
    }

    #[test]
    fn entries_roundtrip(routes in prop::collection::btree_map(arb_prefix(), any::<u32>(), 0..30)) {
        let mut trie = LpmTrie::new();
        for (p, v) in &routes {
            trie.insert(*p, *v);
        }
        // Pre-order is ascending (addr, len): the oracle's key order.
        let want: Vec<(Prefix, &u32)> = routes.iter().map(|(p, v)| (*p, v)).collect();
        prop_assert_eq!(trie.entries(), want);
    }

    #[test]
    fn interleaved_ops_match_oracle(
        ops in prop::collection::vec((0u8..6, arb_clustered_prefix(), any::<u32>()), 0..200),
    ) {
        let mut trie = LpmTrie::new();
        let mut oracle: BTreeMap<Prefix, u32> = BTreeMap::new();
        for (op, p, v) in ops {
            match op {
                0 | 1 => prop_assert_eq!(trie.insert(p, v), oracle.insert(p, v)),
                2 => prop_assert_eq!(trie.remove(&p), oracle.remove(&p)),
                3 => prop_assert_eq!(trie.get(&p), oracle.get(&p)),
                4 => {
                    let (got, want) = (trie.get_mut(&p), oracle.get_mut(&p));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got = v;
                        *want = v;
                    }
                }
                _ => {
                    let addr = p.nth_host(v);
                    let got = trie.lookup(addr).map(|(p, v)| (p, *v));
                    prop_assert_eq!(got, oracle_lookup(&oracle, addr));
                }
            }
            prop_assert_eq!(trie.len(), oracle.len());
            prop_assert!(trie.slots() <= 2 * trie.len() + 1);
        }
        let want: Vec<(Prefix, &u32)> = oracle.iter().map(|(p, v)| (*p, v)).collect();
        prop_assert_eq!(trie.entries(), want);
        // Drain in value order: the bound tightens to the bare root, so
        // one node leaked anywhere above fails here.
        let mut rest: Vec<(u32, Prefix)> = oracle.iter().map(|(p, v)| (*v, *p)).collect();
        rest.sort();
        for (v, p) in rest {
            prop_assert_eq!(trie.remove(&p), Some(v));
            prop_assert!(trie.slots() <= 2 * trie.len() + 1);
        }
        prop_assert!(trie.is_empty() && trie.slots() <= 1);
    }
}

#[test]
fn entries_are_preorder_over_nested_prefixes() {
    let p = |a: [u8; 4], len| Prefix::new(Ipv4Address(a), len);
    // Ascending (addr, len): a prefix, then what it covers, 0 side first.
    let preorder = [
        p([0, 0, 0, 0], 0),
        p([9, 0, 0, 0], 8),
        p([10, 0, 0, 0], 8),
        p([10, 1, 0, 0], 16),
        p([10, 1, 2, 0], 24),
        p([10, 1, 2, 1], 32),
        p([10, 1, 2, 2], 32),
    ];
    let mut trie = LpmTrie::new();
    for i in [5, 3, 0, 6, 2, 4, 1] {
        trie.insert(preorder[i], i);
    }
    let keys = |t: &LpmTrie<usize>| t.iter().map(|(p, _)| p).collect::<Vec<_>>();
    assert_eq!(keys(&trie), preorder);

    // Removing the middle of the chain and a /32 sibling unlinks their
    // slots; putting them back restores order and slot count.
    let slots = trie.slots();
    for i in [3, 5] {
        assert_eq!(trie.remove(&preorder[i]), Some(i));
    }
    assert!(trie.slots() < slots);
    assert_eq!(
        keys(&trie),
        [&preorder[..3], &preorder[4..5], &preorder[6..]].concat()
    );
    for i in [5, 3] {
        assert_eq!(trie.insert(preorder[i], i), None);
    }
    assert_eq!(trie.slots(), slots);
    assert_eq!(keys(&trie), preorder);
}
