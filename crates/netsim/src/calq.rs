//! A calendar queue over packed `(at ‖ seq)` event keys (DESIGN.md §12).
//!
//! The engine's event queue orders compact `(u128 key, u32 slot)`
//! entries — the full 64-bit virtual time in the key's high half, the
//! 64-bit schedule sequence in the low half. A binary heap pays
//! O(log n) *sifts* per operation, and PR 5 left the 64-node star
//! bench sift-bound. A calendar queue instead hashes each entry into a
//! fixed-width **time bucket** (power-of-two widths, so the bucket
//! index is a shift and a mask) and pops by draining the bucket under a
//! rotating cursor. Entries beyond the current bucket "year" wait in
//! one of two further tiers, chosen by how many years ahead they land:
//!
//! * the **rung** — [`RUNG_SLOTS`] unsorted piles, one per upcoming
//!   year, for entries fewer than `RUNG_SLOTS` years ahead. Push is O(1);
//!   when the cursor rolls into a year its pile is relinked into the
//!   buckets, one entry at a time, O(1) each. Product worlds schedule
//!   bimodally — LAN hops a few µs ahead, WAN hops and CBR timers
//!   16–34 ms ahead — and the second mode lives here;
//! * the **overflow heap** — a min-heap for everything farther out
//!   (retry and refresh timers, ≥ ~134 ms at the default geometry),
//!   migrated straight into the buckets when its year comes up.
//!
//! For the steady-state workloads the engine runs, push and pop are
//! O(1) amortized; only the far timer tail pays O(log n).
//!
//! Storage is O(entries pending), not O(buckets): every bucket pile and
//! rung pile is a singly linked list threaded through one arena of
//! `(key, slot, next)` links with a free chain, so a pile is a `u32`
//! head and moving an entry between piles copies nothing. Only the
//! cursor bucket leaves its list: it is unlinked into one reused `Vec`
//! and sorted there. Most worlds run a few thousand events, so a `Vec`
//! per bucket — 1,152 of them, each grown on first use — cost more
//! allocations than the events themselves (DESIGN.md §12).
//!
//! Determinism: pop order is *exactly* ascending key order, the same
//! total order the binary heap produced. Within a bucket entries are
//! sorted by full key (time then sequence), so same-tick events pop in
//! schedule (FIFO) order; a year's rung pile and its overflow entries
//! are both dealt into the buckets before anything of that year pops.
//! Sizing never adapts to wall-clock or occupancy heuristics that could
//! differ between runs — geometry is fixed at construction, so the
//! structure's behaviour is a pure function of the pushed keys.
//! A differential proptest (`crates/netsim/tests/prop_calendar_queue.rs`)
//! drives this structure and a reference `BinaryHeap` with arbitrary
//! interleaved push/pop sequences and asserts identical pop order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default bucket width: 2¹⁰ ns ≈ 1 µs — finer than the ~50 µs LAN
/// one-way delays that set event spacing in the dense benches. (Wider
/// buckets were measured and rejected: 2¹⁷ ns pulled the WAN mode
/// in-year but piled dense LAN traffic into the sorted cursor bucket,
/// cutting the 64-leaf star from 32.5 M to 20.8 M events/s.)
const DEFAULT_WIDTH_SHIFT: u32 = 10;

/// Default bucket count: 2¹⁰ buckets ⇒ a ~1 ms year with the default
/// width.
/// (A 4× wider year was measured and bought nothing: sparse workloads
/// are bound by per-event constants, not year rollovers.)
const DEFAULT_BUCKET_SHIFT: u32 = 10;

/// Rung slots, one per upcoming year: with the default ~1 ms year the
/// rung reaches ~134 ms ahead, past the 16–34 ms WAN/CBR mode that is
/// 19–40 % of product pushes. Fixed at 128 so occupancy is one `u128`
/// and finding the next non-empty year is a rotate and a bit scan.
pub const RUNG_SLOTS: usize = 128;

/// End of a list in the arena: no link.
const NIL: u32 = u32::MAX;

/// One pending entry in a bucket or rung pile.
#[derive(Debug, Clone, Copy)]
struct Link {
    key: u128,
    slot: u32,
    /// The next link of the same pile (or of the free chain), or [`NIL`].
    next: u32,
}

/// A calendar queue of `(key, slot)` entries popped in ascending `key`
/// order. `key` packs `(time ‖ sequence)`; `slot` indexes the caller's
/// event slab and rides along untouched.
#[derive(Debug)]
pub struct CalendarQueue {
    /// Every entry filed in a bucket or rung pile; unused links chain
    /// from `free`.
    links: Vec<Link>,
    /// First link of the free chain, or [`NIL`].
    free: u32,
    /// `1 << bucket_shift` buckets, each the head of an *unsorted* pile
    /// in `links` until the cursor reaches it.
    heads: Vec<u32>,
    /// The cursor bucket, unlinked from its pile and sorted descending so
    /// entries pop from the back in ascending order. Holds entries only
    /// while `cursor_sorted`.
    drain: Vec<(u128, u32)>,
    /// One bit per bucket: does it hold any entries this year?
    occupied: Vec<u64>,
    /// log2 of the bucket width in nanoseconds.
    width_shift: u32,
    /// log2 of the bucket count.
    bucket_shift: u32,
    /// Index of the current year: `at >> (width_shift + bucket_shift)`
    /// of every time the buckets cover.
    year: u64,
    /// Bucket index the pop cursor is parked on.
    cursor: usize,
    /// Whether the cursor bucket has been moved into `drain` already.
    cursor_sorted: bool,
    /// Entries of this year: in bucket piles plus in `drain`.
    in_year: usize,
    /// Year `y` in `year + 1 .. year + RUNG_SLOTS` piles, unsorted, in
    /// slot `y % RUNG_SLOTS` (distinct for every year in that range):
    /// the head of its pile in `links`.
    rung: [u32; RUNG_SLOTS],
    /// One bit per rung slot: does it hold any entries?
    rung_occupied: u128,
    /// Entries currently held in `rung`.
    in_rung: usize,
    /// Entries `RUNG_SLOTS` or more years ahead, min-keyed.
    overflow: BinaryHeap<Reverse<(u128, u32)>>,
    /// Pushes that went to `overflow` (see [`CalendarQueue::heap_pushes`]).
    heap_pushes: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with the default geometry (1 µs × 1024 buckets).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_WIDTH_SHIFT, DEFAULT_BUCKET_SHIFT)
    }

    /// An empty queue with `2^width_shift`-ns buckets, `2^bucket_shift`
    /// of them. Exposed so tests can shrink the year and force heavy
    /// rung/overflow/rotation traffic.
    pub fn with_geometry(width_shift: u32, bucket_shift: u32) -> Self {
        assert!(bucket_shift >= 6, "need at least one occupancy word");
        assert!(
            width_shift + bucket_shift < 64,
            "year span must fit in the clock"
        );
        let nb = 1usize << bucket_shift;
        Self {
            links: Vec::new(),
            free: NIL,
            heads: vec![NIL; nb],
            drain: Vec::new(),
            occupied: vec![0; nb / 64],
            width_shift,
            bucket_shift,
            year: 0,
            cursor: 0,
            cursor_sorted: false,
            in_year: 0,
            rung: [NIL; RUNG_SLOTS],
            rung_occupied: 0,
            in_rung: 0,
            overflow: BinaryHeap::new(),
            heap_pushes: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.in_year + self.in_rung + self.overflow.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many pushes so far took the O(log n) overflow heap rather
    /// than a bucket or a rung slot. Test probe: not part of the API.
    #[doc(hidden)]
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    /// Where the pending entries are held: `(live arena links, cursor
    /// bucket entries, overflow-heap entries)`, the first counted as the
    /// arena's size less its free chain (walked, not a counter). The
    /// three always sum to [`CalendarQueue::len`]. Test probe: not part
    /// of the API.
    #[doc(hidden)]
    pub fn arena_slots(&self) -> (usize, usize, usize) {
        let mut free = 0;
        let mut at = self.free;
        while at != NIL {
            free += 1;
            at = self.links[at as usize].next;
        }
        (
            self.links.len() - free,
            self.drain.len(),
            self.overflow.len(),
        )
    }

    /// Nanosecond time in a key's high half.
    #[inline]
    fn key_at(key: u128) -> u64 {
        (key >> 64) as u64
    }

    /// Index of the year `at` falls in. The last year runs to the end
    /// of the clock, so `u64::MAX` needs no saturating special case.
    #[inline]
    fn year_of(&self, at: u64) -> u64 {
        at >> (self.width_shift + self.bucket_shift)
    }

    #[inline]
    fn bucket_index(&self, at: u64) -> usize {
        ((at >> self.width_shift) as usize) & ((1 << self.bucket_shift) - 1)
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// Insert an entry. O(1) unless it lands `RUNG_SLOTS` or more years
    /// ahead (overflow heap) or in the already-sorted cursor bucket,
    /// where it is placed by binary insertion so the drain order stays
    /// exact (zero-delay self-schedules land here).
    #[inline]
    pub fn push(&mut self, key: u128, slot: u32) {
        let at = Self::key_at(key);
        let year = self.year_of(at);
        if year > self.year {
            if year - self.year < RUNG_SLOTS as u64 {
                let s = year as usize % RUNG_SLOTS;
                self.rung[s] = self.link(key, slot, self.rung[s]);
                self.rung_occupied |= 1 << s;
                self.in_rung += 1;
            } else {
                self.overflow.push(Reverse((key, slot)));
                self.heap_pushes += 1;
            }
            return;
        }
        // An entry behind the cursor (time earlier than the cursor's
        // coverage — possible for adversarial push orders, never for
        // the engine, which only schedules at or after `now`) must pop
        // before everything still pending, so it joins the cursor
        // bucket: full-key ordering inside the bucket puts it first.
        let idx = if at < self.cursor_time() {
            self.cursor
        } else {
            self.bucket_index(at)
        };
        self.file(idx, key, slot);
    }

    /// Put an entry of the current year into bucket `idx`.
    #[inline]
    fn file(&mut self, idx: usize, key: u128, slot: u32) {
        self.in_year += 1;
        self.mark(idx);
        if idx == self.cursor && self.cursor_sorted {
            // Descending order: find the first entry smaller than `key`.
            let pos = self.drain.partition_point(|&(k, _)| k > key);
            self.drain.insert(pos, (key, slot));
        } else {
            self.heads[idx] = self.link(key, slot, self.heads[idx]);
        }
    }

    /// Store `(key, slot)` in a link ahead of `next` — a free one if
    /// any, else a new one — and return its index.
    #[inline]
    fn link(&mut self, key: u128, slot: u32, next: u32) -> u32 {
        let link = Link { key, slot, next };
        if self.free == NIL {
            let at = u32::try_from(self.links.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("too many pending entries");
            self.links.push(link);
            at
        } else {
            let at = self.free;
            self.free = self.links[at as usize].next;
            self.links[at as usize] = link;
            at
        }
    }

    /// First nanosecond covered by the cursor bucket this year.
    #[inline]
    fn cursor_time(&self) -> u64 {
        (self.year << (self.width_shift + self.bucket_shift))
            + ((self.cursor as u64) << self.width_shift)
    }

    /// Advance internal state until the cursor bucket holds the minimum
    /// pending entry, sorted and ready to pop from the back. Returns
    /// `false` when the queue is empty.
    #[inline]
    fn settle(&mut self) -> bool {
        // Fast path: a sorted, non-empty cursor bucket already holds the
        // minimum — an entry of an earlier bucket would have been filed
        // into this one (see `push`), and later buckets are later.
        if self.cursor_sorted && !self.drain.is_empty() {
            return true;
        }
        self.settle_slow()
    }

    /// [`CalendarQueue::settle`] once the cursor bucket has run dry.
    fn settle_slow(&mut self) -> bool {
        if self.in_year == 0 && !self.roll_year() {
            return false;
        }
        // Scan the occupancy bitset from the cursor forward.
        let nb = 1usize << self.bucket_shift;
        let mut idx = self.cursor;
        while idx < nb {
            let word = self.occupied[idx / 64] >> (idx % 64);
            if word != 0 {
                idx += word.trailing_zeros() as usize;
                break;
            }
            idx = (idx / 64 + 1) * 64;
        }
        assert!(idx < nb, "occupancy bits out of sync");
        if idx != self.cursor {
            self.cursor = idx;
            self.cursor_sorted = false;
        }
        if !self.cursor_sorted {
            // `drain` is empty: the cursor only moves once it has run dry.
            let mut at = self.heads[self.cursor];
            self.heads[self.cursor] = NIL;
            while at != NIL {
                let Link { key, slot, next } = self.links[at as usize];
                self.drain.push((key, slot));
                self.links[at as usize].next = self.free;
                self.free = at;
                at = next;
            }
            self.drain.sort_unstable_by_key(|&(k, _)| Reverse(k));
            self.cursor_sorted = true;
        }
        true
    }

    /// The current year is exhausted: jump straight to the earliest
    /// year holding anything (skipping empty years in O(1)), relink its
    /// rung pile into the buckets and file its overflow entries. Every
    /// other pending entry is of a later year, so the rung keeps its
    /// one-slot-per-year invariant and the heap its "later than the
    /// current year" one. Returns `false` when nothing is pending.
    fn roll_year(&mut self) -> bool {
        let rung_year = (self.rung_occupied != 0).then(|| {
            let first = ((self.year + 1) % RUNG_SLOTS as u64) as u32;
            let skipped = self.rung_occupied.rotate_right(first).trailing_zeros();
            self.year + 1 + u64::from(skipped)
        });
        let heap_year = self
            .overflow
            .peek()
            .map(|&Reverse((key, _))| self.year_of(Self::key_at(key)));
        let Some(next) = rung_year.into_iter().chain(heap_year).min() else {
            return false;
        };
        self.year = next;
        self.cursor = 0;
        self.cursor_sorted = false;
        if rung_year == Some(next) {
            let s = next as usize % RUNG_SLOTS;
            self.rung_occupied &= !(1 << s);
            let mut at = self.rung[s];
            self.rung[s] = NIL;
            while at != NIL {
                let Link { key, next, .. } = self.links[at as usize];
                let idx = self.bucket_index(Self::key_at(key));
                self.links[at as usize].next = self.heads[idx];
                self.heads[idx] = at;
                self.mark(idx);
                self.in_rung -= 1;
                self.in_year += 1;
                at = next;
            }
        }
        while let Some(&Reverse((key, slot))) = self.overflow.peek() {
            if self.year_of(Self::key_at(key)) != next {
                break;
            }
            self.overflow.pop();
            self.file(self.bucket_index(Self::key_at(key)), key, slot);
        }
        true
    }

    /// The minimum pending key, if any.
    pub fn peek(&mut self) -> Option<u128> {
        if !self.settle() {
            return None;
        }
        self.drain.last().map(|&(k, _)| k)
    }

    /// Remove and return the minimum-key entry.
    pub fn pop(&mut self) -> Option<(u128, u32)> {
        self.pop_until(u64::MAX)
    }

    /// Remove and return the minimum-key entry if its time is at most
    /// `deadline` — a peek and a pop that settle the queue once.
    #[inline]
    pub(crate) fn pop_until(&mut self, deadline: u64) -> Option<(u128, u32)> {
        if !self.settle() {
            return None;
        }
        let entry = self
            .drain
            .pop_if(|&mut (key, _)| Self::key_at(key) <= deadline)?;
        self.in_year -= 1;
        if self.drain.is_empty() {
            let cur = self.cursor;
            self.clear(cur);
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> u128 {
        (u128::from(at) << 64) | u128::from(seq)
    }

    #[test]
    fn pops_in_key_order_across_years() {
        let mut q = CalendarQueue::with_geometry(6, 6); // 64 ns × 64 buckets
        let ats = [5u64, 4096, 70_000, 5, 1_000_000, 63, 64, 4095];
        for (i, &at) in ats.iter().enumerate() {
            q.push(key(at, i as u64), i as u32);
        }
        let mut got = Vec::new();
        while let Some((k, _)) = q.pop() {
            got.push(k);
        }
        let mut want: Vec<u128> = ats
            .iter()
            .enumerate()
            .map(|(i, &at)| key(at, i as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn same_tick_pops_fifo_by_seq() {
        let mut q = CalendarQueue::new();
        for seq in [3u64, 1, 4, 1_000, 2] {
            q.push(key(1_000_000, seq), seq as u32);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(k, _)| k as u64)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 1_000]);
    }

    #[test]
    fn zero_delay_push_into_draining_bucket() {
        let mut q = CalendarQueue::new();
        q.push(key(100, 1), 0);
        q.push(key(100, 2), 1);
        assert_eq!(q.pop(), Some((key(100, 1), 0)));
        // Bucket is now sorted and mid-drain; a same-tick push with a
        // later seq must pop after seq 2, an earlier-time push first.
        q.push(key(100, 3), 2);
        q.push(key(90, 4), 3);
        assert_eq!(q.pop(), Some((key(90, 4), 3)));
        assert_eq!(q.pop(), Some((key(100, 2), 1)));
        assert_eq!(q.pop(), Some((key(100, 3), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn near_max_times_saturate_into_overflow() {
        let mut q = CalendarQueue::new();
        q.push(key(u64::MAX - 1, 1), 0);
        q.push(key(5, 2), 1);
        assert_eq!(q.peek(), Some(key(5, 2)));
        assert_eq!(q.pop(), Some((key(5, 2), 1)));
        assert_eq!(q.pop(), Some((key(u64::MAX - 1, 1), 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn exact_max_time_drains_from_saturated_final_year() {
        // Regression: `at == u64::MAX` used to be un-migratable once
        // `year_end` saturated, spinning `settle` forever.
        let mut q = CalendarQueue::with_geometry(6, 6);
        q.push(key(u64::MAX, 2), 0);
        q.push(key(u64::MAX, 1), 1);
        q.push(key(u64::MAX - 1, 3), 2);
        assert_eq!(q.pop(), Some((key(u64::MAX - 1, 3), 2)));
        assert_eq!(q.pop(), Some((key(u64::MAX, 1), 1)));
        // A push while parked in the saturated year still orders right.
        q.push(key(u64::MAX, 4), 3);
        assert_eq!(q.pop(), Some((key(u64::MAX, 2), 0)));
        assert_eq!(q.pop(), Some((key(u64::MAX, 4), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_all_three_tiers() {
        let mut q = CalendarQueue::with_geometry(6, 6); // 4096 ns year
        assert!(q.is_empty());
        q.push(key(1, 1), 0); // bucket
        q.push(key(5 * 4096, 2), 1); // rung, five years ahead
        q.push(key(1 << 40, 3), 2); // overflow heap
        assert_eq!((q.in_year, q.in_rung, q.overflow.len()), (1, 1, 1));
        for left in (0..3).rev() {
            q.pop();
            assert_eq!(q.len(), left);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn rung_reaches_one_slot_short_of_a_full_turn() {
        // Years 1..=127 ahead pile up in the rung; year 128 would wrap
        // onto the current year's own slot index and goes to the heap
        // instead. Both drain in key order.
        let mut q = CalendarQueue::with_geometry(6, 6);
        let year = 4096u64;
        q.push(key(127 * year, 1), 0);
        q.push(key(128 * year, 2), 1);
        assert_eq!((q.in_rung, q.heap_pushes()), (1, 1));
        // Rolling into year 127 re-bases the rung: year 128 is now one
        // year ahead, year 254 the farthest slot, year 255 heap again.
        assert_eq!(q.pop(), Some((key(127 * year, 1), 0)));
        q.push(key(254 * year, 3), 2);
        q.push(key(255 * year, 4), 3);
        assert_eq!((q.in_rung, q.heap_pushes()), (1, 2));
        assert_eq!(q.pop(), Some((key(128 * year, 2), 1)));
        assert_eq!(q.pop(), Some((key(254 * year, 3), 2)));
        assert_eq!(q.pop(), Some((key(255 * year, 4), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rung_pile_and_heap_entries_of_one_year_interleave() {
        // An entry pushed while its year was ≥ 128 ahead (heap) and one
        // pushed later, when the same year was in rung range, must still
        // pop in key order once that year comes up.
        let mut q = CalendarQueue::with_geometry(6, 6);
        let year = 4096u64;
        q.push(key(200 * year + 9, 1), 0); // heap
        q.push(key(100 * year, 2), 1); // rung
        assert_eq!(q.pop(), Some((key(100 * year, 2), 1)));
        q.push(key(200 * year + 3, 3), 2); // rung now: 100 years ahead
        q.push(key(200 * year + 9, 4), 3); // same tick as the heap entry
        assert_eq!(q.heap_pushes(), 1);
        assert_eq!(q.pop(), Some((key(200 * year + 3, 3), 2)));
        assert_eq!(q.pop(), Some((key(200 * year + 9, 1), 0)));
        assert_eq!(q.pop(), Some((key(200 * year + 9, 4), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn second_burst_reuses_the_arena() {
        // 10,000 same-instant events fill one bucket pile, then the
        // cursor Vec. A second burst — filed in a rung pile this time,
        // relinked into a bucket at the rollover — reuses the freed
        // links and the same Vec: neither grows.
        let mut q = CalendarQueue::new();
        let burst = |q: &mut CalendarQueue, at: u64, first_seq: u64| {
            for seq in first_seq..first_seq + 10_000 {
                q.push(key(at, seq), seq as u32);
            }
            assert_eq!(q.arena_slots(), (10_000, 0, 0));
            let mut last = 0u128;
            while let Some((k, _)) = q.pop() {
                assert!(k > last);
                last = k;
                assert_eq!(q.arena_slots().0, 0, "the cursor bucket left the arena");
            }
        };
        burst(&mut q, 1_000, 1);
        let (links, drain) = (q.links.len(), q.drain.capacity());
        assert_eq!(links, 10_000);
        burst(&mut q, 5 << 20, 10_001);
        assert_eq!((q.links.len(), q.drain.capacity()), (links, drain));
    }

    #[test]
    fn arena_holds_only_what_is_pending() {
        // Eight entries in flight, each popped and re-pushed eight
        // buckets later: over 2,048 steps the cursor visits every one
        // of the 1,024 buckets (twice, across a rollover through the
        // rung), and the arena never holds more than the eight.
        let mut q = CalendarQueue::new();
        let width = 1u64 << DEFAULT_WIDTH_SHIFT;
        let mut seq = 0u64;
        for i in 0..8 {
            seq += 1;
            q.push(key(i * width, seq), 0);
        }
        let mut touched = vec![false; 1 << DEFAULT_BUCKET_SHIFT];
        for _ in 0..2_048 {
            let (k, slot) = q.pop().expect("eight pending");
            let at = (k >> 64) as u64;
            touched[q.bucket_index(at)] = true;
            seq += 1;
            q.push(key(at + 8 * width, seq), slot);
            let (links, drain, heap) = q.arena_slots();
            assert!(links <= 8, "{links} live links");
            assert_eq!(links + drain + heap, 8);
        }
        assert!(touched.iter().all(|&t| t), "every bucket was visited");
        assert!(q.links.len() <= 8, "arena grew to {}", q.links.len());
    }

    #[test]
    fn measured_bimodal_schedule_mostly_avoids_the_heap() {
        // The schedule-ahead distribution measured on the product
        // worlds (DESIGN.md §12): 60 % of pushes 1–66 µs ahead (LAN
        // hops), 35 % 16–34 ms ahead (WAN hops, CBR timers), 5 %
        // 1–500 s ahead (retry/refresh timers). Hold model: pop the
        // earliest, push one that far after it. Only the timer tail
        // may pay the heap's O(log n).
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let mut q = CalendarQueue::new();
        let mut rng = SmallRng::seed_from_u64(16);
        let mut ahead = |now: u64| {
            let band = match rng.random_range(0..100) {
                0..60 => 1_000..66_000,
                60..95 => 16_000_000..34_000_000,
                _ => 1_000_000_000..500_000_000_000u64,
            };
            now + rng.random_range(band)
        };
        let mut seq = 0u64;
        for _ in 0..256 {
            seq += 1;
            q.push(key(ahead(0), seq), 0);
        }
        let before = q.heap_pushes();
        let pushes = 100_000u64;
        let mut last = 0u128;
        for _ in 0..pushes {
            let (k, slot) = q.pop().expect("hold model keeps the queue non-empty");
            assert!(k > last, "pop order must stay ascending");
            last = k;
            seq += 1;
            q.push(key(ahead((k >> 64) as u64), seq), slot);
        }
        let to_heap = q.heap_pushes() - before;
        assert!(
            to_heap * 10 < pushes,
            "{to_heap} of {pushes} pushes went through the heap"
        );
    }
}
