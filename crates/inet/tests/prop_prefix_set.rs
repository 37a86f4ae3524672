//! Property tests: `PrefixSet` membership must agree with a linear scan
//! of its prefixes, and its ranges must be sorted, disjoint and merged.

use inet::{Prefix, PrefixSet};
use lispwire::Ipv4Address;
use proptest::prelude::*;

/// Prefixes around a few seeds, so sets nest, overlap, abut and
/// duplicate far more often than uniform ones would.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    let seeds = vec![
        0x0000_0000,
        0x6400_0000,
        0x6401_0000,
        0x6402_0000,
        0x6480_0000,
        0x7800_0000,
        0x7801_0000,
        0xffff_ff00,
        0xffff_ffff,
    ];
    (prop::sample::select(seeds), 0u8..=32)
        .prop_map(|(addr, len)| Prefix::new(Ipv4Address::from_u32(addr), len))
}

/// Addresses at and next to every range edge of `set`, plus `extra`.
fn probes(set: &PrefixSet, extra: &[u32]) -> Vec<u32> {
    let mut out = extra.to_vec();
    for &(first, last) in set.ranges() {
        out.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
    }
    out
}

proptest! {
    #[test]
    fn membership_matches_linear_scan(
        prefixes in prop::collection::vec(arb_prefix(), 0..24),
        queries in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let set = PrefixSet::new(prefixes.clone());
        prop_assert_eq!(set.prefixes(), &prefixes[..]);
        for q in probes(&set, &queries) {
            let addr = Ipv4Address::from_u32(q);
            let want = prefixes.iter().any(|p| p.contains(addr));
            prop_assert_eq!(set.contains(addr), want, "{}", addr);
        }
    }

    #[test]
    fn ranges_are_sorted_disjoint_and_merged(
        prefixes in prop::collection::vec(arb_prefix(), 0..24),
    ) {
        let set = PrefixSet::new(prefixes);
        for w in set.ranges().windows(2) {
            // A gap of at least one address between neighbours.
            prop_assert!(w[0].1 < w[1].0 && w[1].0 - w[0].1 > 1, "{:?}", w);
        }
        for &(first, last) in set.ranges() {
            prop_assert!(first <= last);
        }
    }
}

#[test]
fn adjacent_sites_merge_into_one_range() {
    // multi_site's plan: site i holds 120.i.0.0/16 (i < 256), so the
    // sites abut and collapse into one range.
    let sites: Vec<Prefix> = (0..256u32)
        .rev()
        .map(|i| Prefix::new(Ipv4Address::from_u32(0x7800_0000 | (i << 16)), 16))
        .collect();
    let set = PrefixSet::new(sites);
    assert_eq!(set.ranges(), &[(0x7800_0000, 0x78ff_ffff)]);
    assert!(set.contains(Ipv4Address::new(120, 200, 3, 4)));
    assert!(!set.contains(Ipv4Address::new(121, 0, 0, 0)));
    assert!(!set.contains(Ipv4Address::new(119, 255, 255, 255)));
}

#[test]
fn empty_and_full_sets() {
    let empty = PrefixSet::new(Vec::new());
    assert!(!empty.contains(Ipv4Address::new(0, 0, 0, 0)));
    let full = PrefixSet::new(vec![
        Prefix::DEFAULT,
        Prefix::host(Ipv4Address::new(255, 255, 255, 255)),
    ]);
    assert_eq!(full.ranges(), &[(0, u32::MAX)]);
    assert!(full.contains(Ipv4Address::new(255, 255, 255, 255)));
}
