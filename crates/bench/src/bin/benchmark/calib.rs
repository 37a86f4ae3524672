//! The calibration kernel: a fixed amount of benchmark-owned work run
//! immediately before every timed iteration. Iteration cost is reported
//! as `iteration wall ÷ calibration wall` ("calibration units", cu), so
//! that a host that is 25 % slower this minute slows both and the ratio
//! holds.
//!
//! FROZEN: the op counts and the mix below define the cu. Changing them
//! rescales every `iter_cu_*` number ever recorded. The mix mirrors what
//! the simulator does — ALU work, cache-resident random access,
//! small-object allocation churn and B-tree maintenance — because an
//! ALU-only kernel did not track `world_build` (allocation-bound) on the
//! sizing runs. The kernel calls no product code.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

const TABLE_WORDS: usize = 64 * 1024; // 512 KiB of u64
const ALU_STEPS: u32 = 6_000_000;
const TABLE_STEPS: u32 = 5_000_000;
const BOX_STEPS: u32 = 350_000;
const BOX_DEPTH: usize = 512;
const TREE_STEPS: u32 = 110_000;
const TREE_KEYS: usize = 4096;

#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One pass of the kernel, every step count divided by `divisor`;
/// returns a checksum.
fn kernel(table: &mut [u64], divisor: u32) -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc: u64 = 0;

    for _ in 0..ALU_STEPS / divisor {
        x = xorshift(x);
        acc = acc.wrapping_add(x.rotate_left((x & 31) as u32));
    }

    for _ in 0..TABLE_STEPS / divisor {
        x = xorshift(x);
        let slot = &mut table[(x as usize) & (TABLE_WORDS - 1)];
        *slot = slot.wrapping_add(x);
        acc ^= *slot;
    }

    let mut ring: VecDeque<Box<[u8]>> = VecDeque::with_capacity(BOX_DEPTH + 1);
    for _ in 0..BOX_STEPS / divisor {
        x = xorshift(x);
        let len = 16 + ((x >> 8) & 0xf0) as usize;
        let mut b = vec![0u8; len].into_boxed_slice();
        b[0] = x as u8;
        ring.push_back(b);
        if ring.len() > BOX_DEPTH {
            let old = ring.pop_front().expect("ring is non-empty");
            acc = acc.wrapping_add(u64::from(old[0]));
        }
    }

    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut keys: Vec<u64> = vec![0; TREE_KEYS];
    for i in 0..TREE_STEPS / divisor {
        x = xorshift(x);
        let slot = (i as usize) % TREE_KEYS;
        if let Some(v) = tree.remove(&keys[slot]) {
            acc = acc.wrapping_add(v.len() as u64);
        }
        keys[slot] = x;
        tree.insert(x, vec![x as u8; 24]);
    }

    // Freeing is half of the allocation work: the caller's clock is
    // still running when `ring` and `tree` drop here.
    acc.wrapping_add((ring.len() + tree.len()) as u64)
}

pub struct Calib {
    table: Vec<u64>,
    divisor: u32,
}

impl Calib {
    /// `quick` is the unit-test smoke, which only needs the kernel to
    /// run: it gets a twentieth of the steps. Measurements use the full
    /// kernel.
    pub fn new(quick: bool) -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Self {
            table,
            divisor: if quick { 20 } else { 1 },
        }
    }

    /// Run the kernel once and return its wall-clock in seconds. It runs
    /// on one thread for every workload: a kernel on two threads did not
    /// steady `registry_jobs` any further (A/B over ten seeds: spread of
    /// the median 2.5 % against 3.1 %, of p75 3.6 % against 3.1 %).
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        black_box(kernel(&mut self.table, self.divisor));
        start.elapsed().as_secs_f64()
    }
}
