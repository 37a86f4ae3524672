//! Property: an xTR's EID-space test (one binary search over merged
//! ranges, `inet::PrefixSet`) answers exactly as the linear scan over
//! every site prefix it replaced, on the worlds `multi_site` builds.

use inet::PrefixSet;
use pcelisp::prelude::*;
use proptest::prelude::*;

/// Addresses at, just inside and just outside every prefix edge, and
/// `extra` offsets from 120.0.0.0 (where `multi_site` numbers its
/// sites).
fn probes(prefixes: &[Prefix], extra: &[u32]) -> Vec<Ipv4Address> {
    let mut out: Vec<u32> = extra
        .iter()
        .map(|&x| 0x7800_0000u32.wrapping_add(x))
        .collect();
    for p in prefixes {
        let first = p.addr().to_u32();
        let last = first | !Prefix::mask(p.len());
        out.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
    }
    out.into_iter().map(Ipv4Address::from_u32).collect()
}

proptest! {
    /// Over every `multi_site` size: the spec's site prefixes, merged.
    #[test]
    fn multi_site_eid_space_matches_linear_scan(
        sites in 1usize..=ScenarioSpec::MAX_DEST_SITES,
        extra in prop::collection::vec(0u32..0x0900_0000, 0..40),
    ) {
        let spec = ScenarioSpec::multi_site(CpKind::Pce, sites, 2);
        let prefixes: Vec<Prefix> = spec.topology.sites.iter().map(|s| s.eid_prefix).collect();
        let set = PrefixSet::new(prefixes.clone());
        for addr in probes(&prefixes, &extra) {
            let want = prefixes.iter().any(|p| p.contains(addr));
            prop_assert_eq!(set.contains(addr), want, "{} in {} sites", addr, sites);
        }
    }
}

/// The set each built xTR holds answers like the scan, across sizes
/// that straddle the 256-site boundary of the address plan.
#[test]
fn built_xtrs_answer_like_the_scan() {
    for sites in [1, 7, 255, 256, 257] {
        let spec = ScenarioSpec::multi_site(CpKind::LispDrop, sites, 2);
        let prefixes: Vec<Prefix> = spec.topology.sites.iter().map(|s| s.eid_prefix).collect();
        let world = spec.build(1);
        let xtr = world.sim.node_ref::<Xtr>(world.all_xtrs()[0]);
        for addr in probes(&prefixes, &[0x0100_0000, 0x0123_4567, 0x08ff_ffff]) {
            let want = prefixes.iter().any(|p| p.contains(addr));
            assert_eq!(
                xtr.cfg.eid_space.contains(addr),
                want,
                "{addr} in {sites} sites"
            );
        }
    }
}
