//! IPv4 prefixes.

use core::fmt;
use lispwire::Ipv4Address;

/// An IPv4 prefix: a network address plus a mask length.
///
/// The address is always stored in canonical form (host bits zeroed), so
/// two prefixes covering the same range compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: Ipv4Address,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix {
        addr: Ipv4Address([0; 4]),
        len: 0,
    };

    /// Construct, canonicalising host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Address, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        Self {
            addr: Ipv4Address::from_u32(addr.to_u32() & Self::mask(len)),
            len,
        }
    }

    /// A host prefix (`/32`).
    pub fn host(addr: Ipv4Address) -> Self {
        Self::new(addr, 32)
    }

    /// The network mask for a length.
    pub fn mask(len: u8) -> u32 {
        // Shifted in 64 bits so that /0 needs no branch.
        (u64::from(u32::MAX) << (32 - u32::from(len))) as u32
    }

    /// The canonical network address.
    pub fn addr(&self) -> Ipv4Address {
        self.addr
    }

    /// The prefix length.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True if this is the zero-length default prefix.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        addr.to_u32() & Self::mask(self.len) == self.addr.to_u32()
    }

    /// True if `other` is fully covered by this prefix.
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The `i`-th host address inside the prefix (wraps within the prefix).
    pub fn nth_host(&self, i: u32) -> Ipv4Address {
        let span = if self.len == 32 {
            1u64
        } else {
            1u64 << (32 - self.len)
        };
        Ipv4Address::from_u32(self.addr.to_u32() | ((u64::from(i) % span) as u32))
    }
}

/// A set of IPv4 addresses given as prefixes, held as sorted, merged
/// address ranges: membership is one binary search however many
/// prefixes there are. An xTR asks it of every site-to-WAN packet ("is
/// the destination in the EID space?"), and a world of 512 sites would
/// otherwise scan 512 prefixes each time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSet {
    /// The prefixes as given, in order.
    prefixes: Vec<Prefix>,
    /// Ascending, disjoint, non-adjacent inclusive `(first, last)`
    /// ranges whose union is exactly the prefixes' union.
    ranges: Vec<(u32, u32)>,
}

impl PrefixSet {
    /// The union of `prefixes` (duplicates, nesting and adjacency are
    /// all fine).
    pub fn new(prefixes: Vec<Prefix>) -> Self {
        let mut spans: Vec<(u32, u32)> = prefixes
            .iter()
            .map(|p| {
                let first = p.addr.to_u32();
                (first, first | !Prefix::mask(p.len))
            })
            .collect();
        spans.sort_unstable();
        let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(spans.len());
        for (first, last) in spans {
            match ranges.last_mut() {
                // Overlapping or adjacent: extend. `saturating_add` keeps
                // a range ending at 255.255.255.255 from wrapping.
                Some(prev) if first <= prev.1.saturating_add(1) => prev.1 = prev.1.max(last),
                _ => ranges.push((first, last)),
            }
        }
        Self { prefixes, ranges }
    }

    /// True if some prefix of the set contains `addr`.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        let addr = addr.to_u32();
        // The ranges starting at or before `addr` form a prefix of the
        // list; only the last of them can hold it.
        let after = self.ranges.partition_point(|&(first, _)| first <= addr);
        after > 0 && addr <= self.ranges[after - 1].1
    }

    /// The prefixes the set was made from, in the order given.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The merged ranges, as `(first, last)` inclusive addresses.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: [u8; 4]) -> Ipv4Address {
        Ipv4Address(s)
    }

    #[test]
    fn canonicalisation() {
        let p = Prefix::new(a([10, 1, 2, 3]), 8);
        assert_eq!(p.addr(), a([10, 0, 0, 0]));
        assert_eq!(p, Prefix::new(a([10, 99, 0, 7]), 8));
        assert_eq!(p.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn contains() {
        let p = Prefix::new(a([10, 0, 0, 0]), 8);
        assert!(p.contains(a([10, 255, 1, 2])));
        assert!(!p.contains(a([11, 0, 0, 1])));
        assert!(Prefix::DEFAULT.contains(a([1, 2, 3, 4])));
        let host = Prefix::host(a([10, 0, 0, 1]));
        assert!(host.contains(a([10, 0, 0, 1])));
        assert!(!host.contains(a([10, 0, 0, 2])));
    }

    #[test]
    fn covers() {
        let p8 = Prefix::new(a([10, 0, 0, 0]), 8);
        let p16 = Prefix::new(a([10, 1, 0, 0]), 16);
        assert!(p8.covers(&p16));
        assert!(!p16.covers(&p8));
        assert!(p8.covers(&p8));
        assert!(Prefix::DEFAULT.covers(&p8));
    }

    #[test]
    fn mask_edges() {
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
        assert_eq!(Prefix::mask(8), 0xff00_0000);
    }

    #[test]
    fn nth_host_wraps() {
        let p = Prefix::new(a([10, 0, 0, 0]), 30); // 4 addresses
        assert_eq!(p.nth_host(1), a([10, 0, 0, 1]));
        assert_eq!(p.nth_host(5), a([10, 0, 0, 1]));
        let h = Prefix::host(a([9, 9, 9, 9]));
        assert_eq!(h.nth_host(7), a([9, 9, 9, 9]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_long_panics() {
        let _ = Prefix::new(a([0, 0, 0, 0]), 33);
    }
}
