//! Differential oracle for the calendar-queue scheduler (DESIGN.md §12).
//!
//! Two layers are checked against a reference `BinaryHeap` model under
//! arbitrary interleaved push/pop sequences:
//!
//! * [`netsim::calq::CalendarQueue`] directly, on raw `(at‖seq, slot)`
//!   keys — including a deliberately tiny geometry that forces bucket
//!   rotation, year jumps, rung migration and overflow-heap migration
//!   every few events;
//! * the engine-facing [`netsim::sim::queue_testing::QueueProbe`], which
//!   adds the slab of event bodies and the `Ns::MAX`-is-never rule
//!   (never-events are skipped and consume **no** sequence number).
//!
//! Scripts mix absolute times (adversarial: behind the cursor, at the
//! end of the clock) with engine-shaped *schedule-ahead* pushes measured
//! in the queue's own years from the last popped time, so one script
//! reaches all three tiers — bucket, rung, heap — at any geometry.
//!
//! The property in both cases: pop order is byte-identical to the
//! reference, and (for the probe) slab occupancy tracks queue length;
//! for the raw queue, its arena of pile links, its sorted cursor bucket
//! and its heap together hold exactly the pending entries.

use netsim::calq::{CalendarQueue, RUNG_SLOTS};
use netsim::sim::queue_testing::QueueProbe;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the default year span (1 µs × 1024 buckets).
const DEFAULT_YEAR_SHIFT: u32 = 20;
/// log2 of the tiny geometry's year span (64 ns × 64 buckets).
const TINY_YEAR_SHIFT: u32 = 12;

/// One scripted operation against the queue under test.
#[derive(Debug, Clone)]
enum Op {
    /// Push an event at an absolute time drawn from an interesting band.
    Push(u64),
    /// Push an event `years` whole years plus `frac / 2³²` of a year
    /// after the last popped time — how the engine schedules (at or
    /// after `now`). `(0, 0)` is a zero-delay same-tick push.
    Ahead { years: u64, frac: u32 },
    /// Pop (a no-op when empty, matching on both sides).
    Pop,
}

impl Op {
    /// The absolute time this push lands at, given the last popped time
    /// and the geometry's year span.
    fn at(&self, now: u64, year_shift: u32) -> Option<u64> {
        match *self {
            Op::Push(at) => Some(at),
            Op::Ahead { years, frac } => {
                let part = (u64::from(frac) << year_shift) >> 32;
                Some(now.saturating_add((years << year_shift) + part))
            }
            Op::Pop => None,
        }
    }
}

/// Absolute times from the bands the engine actually produces:
/// same-tick bursts at zero, a dense near-term band, a far-future band
/// beyond any small calendar year, and saturating near-`u64::MAX` timers
/// (the probe additionally treats exactly `u64::MAX` as "never").
fn arb_at() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..5_000,
        0u64..5_000,
        1_000_000u64..1_000_000_000,
        u64::MAX - 4..=u64::MAX,
    ]
}

/// Schedule-ahead distances, tier by tier: same tick and same year
/// (buckets; across a year end the very next rung slot, which is the
/// one the next rollover migrates), a few years out, either side of the
/// rung's reach (`RUNG_SLOTS` years is the first heap year), and far.
fn arb_ahead() -> impl Strategy<Value = Op> {
    let edge = RUNG_SLOTS as u64;
    prop_oneof![
        Just((0u64, 0u32)),
        (Just(0u64), any::<u32>()),
        (1u64..4, any::<u32>()),
        (1u64..edge, any::<u32>()),
        (edge - 2..edge + 2, any::<u32>()),
        (edge..100_000, any::<u32>()),
    ]
    .prop_map(|(years, frac)| Op::Ahead { years, frac })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            arb_at().prop_map(Op::Push),
            arb_ahead(),
            arb_ahead(),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        1..300,
    )
}

proptest! {
    /// Raw calendar queue vs `BinaryHeap` on the default geometry.
    #[test]
    fn calendar_matches_heap_default_geometry(ops in arb_ops()) {
        check_calendar(CalendarQueue::new(), DEFAULT_YEAR_SHIFT, &ops);
    }

    /// A 64ns × 64-bucket calendar: every push lands near or past the
    /// year end, exercising rotation, year jumps, and rung and overflow
    /// migration far more often than the default geometry ever would.
    #[test]
    fn calendar_matches_heap_tiny_geometry(ops in arb_ops()) {
        check_calendar(CalendarQueue::with_geometry(6, 6), TINY_YEAR_SHIFT, &ops);
    }

    /// Engine-facing probe: same pop stream as the model, the
    /// `u64::MAX` never-rule consumes no seq, and the slab never leaks.
    #[test]
    fn queue_probe_matches_model(ops in arb_ops()) {
        let mut probe: QueueProbe = QueueProbe::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, usize, u64)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut now: u64 = 0;
        let mut max_live = 0usize;
        for (i, op) in ops.iter().enumerate() {
            if let Some(at) = op.at(now, DEFAULT_YEAR_SHIFT) {
                probe.push(at, i % 7, i as u64);
                if at != u64::MAX {
                    seq += 1;
                    model.push(Reverse((at, seq, i % 7, i as u64)));
                }
            } else {
                let got = probe.pop();
                let want = model.pop().map(|Reverse(e)| e);
                prop_assert_eq!(got, want);
                now = got.map_or(now, |e| e.0);
            }
            prop_assert_eq!(probe.len(), model.len());
            prop_assert_eq!(probe.slab_occupied(), model.len());
            max_live = max_live.max(model.len());
        }
        while let Some(Reverse(want)) = model.pop() {
            prop_assert_eq!(probe.pop(), Some(want));
        }
        prop_assert_eq!(probe.pop(), None);
        prop_assert!(probe.is_empty());
        prop_assert_eq!(probe.slab_occupied(), 0);
        // Freed slots are recycled: the slab never grows past the high
        //-water mark of concurrently live events.
        prop_assert!(probe.slab_capacity() <= max_live);
    }
}

/// Drive `cal` and a reference heap through `ops`, comparing every pop,
/// then drain both and compare the tails.
fn check_calendar(mut cal: CalendarQueue, year_shift: u32, ops: &[Op]) {
    let mut model: BinaryHeap<Reverse<(u128, u32)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut now: u64 = 0;
    for op in ops {
        if let Some(at) = op.at(now, year_shift) {
            seq += 1;
            let key = (u128::from(at) << 64) | u128::from(seq);
            let slot = seq as u32;
            cal.push(key, slot);
            model.push(Reverse((key, slot)));
        } else {
            assert_eq!(cal.peek(), model.peek().map(|&Reverse((k, _))| k));
            let got = cal.pop();
            assert_eq!(got, model.pop().map(|Reverse(e)| e));
            now = got.map_or(now, |(key, _)| (key >> 64) as u64);
        }
        assert_eq!(cal.len(), model.len());
        assert_eq!(cal.is_empty(), model.is_empty());
        assert_arena_holds_exactly_the_pending(&cal);
    }
    while let Some(Reverse(want)) = model.pop() {
        assert_eq!(cal.pop(), Some(want));
        assert_arena_holds_exactly_the_pending(&cal);
    }
    assert_eq!(cal.pop(), None);
    assert_eq!(cal.arena_slots(), (0, 0, 0));
}

/// Every pending entry is in exactly one place — a live arena link, the
/// sorted cursor bucket or the overflow heap — and no link leaks: the
/// arena less its free chain is exactly the linked entries.
fn assert_arena_holds_exactly_the_pending(cal: &CalendarQueue) {
    let (links, cursor, heap) = cal.arena_slots();
    assert_eq!(links + cursor + heap, cal.len());
}

/// The scripted corner cases the random scripts only reach by luck, at
/// both geometries: each runs against the same reference heap.
#[test]
fn scripted_rollover_corners_match_heap() {
    let edge = RUNG_SLOTS as u64;
    let ahead = |years: u64, frac: u32| Op::Ahead { years, frac };
    let scripts: Vec<Vec<Op>> = vec![
        // A same-tick burst split by the rollover that migrates its
        // slot: three wait in the rung, `Pop` rolls the year and deals
        // them into a bucket, three more join the sorted cursor bucket.
        vec![
            Op::Push(0),
            Op::Pop,
            ahead(1, 7),
            ahead(1, 7),
            ahead(1, 7),
            Op::Pop,
            ahead(0, 0),
            ahead(0, 0),
            ahead(0, 0),
            Op::Pop,
            Op::Pop,
        ],
        // Pushes into the slot being migrated and the slots around it:
        // after the roll, "one full turn ahead" reuses the index the
        // just-emptied slot had, and one year less is the last rung slot.
        vec![
            Op::Push(0),
            ahead(1, 0),
            ahead(2, 0),
            Op::Pop,
            Op::Pop,
            ahead(edge, 0),
            ahead(edge - 1, 0),
            ahead(1, 0),
            ahead(0, 1 << 31),
            Op::Pop,
            Op::Pop,
        ],
        // The end of the clock in all three tiers' terms: `u64::MAX`
        // from far away (heap), then from the final years (rung, then
        // bucket), with saturating schedule-ahead pushes on top.
        vec![
            Op::Push(u64::MAX),
            Op::Push(u64::MAX - 1),
            Op::Push(u64::MAX - (3 << TINY_YEAR_SHIFT)),
            Op::Push(u64::MAX - (3 << DEFAULT_YEAR_SHIFT)),
            Op::Pop,
            Op::Pop,
            Op::Push(u64::MAX),
            ahead(1, 0),
            ahead(edge, 0),
            Op::Pop,
            Op::Push(u64::MAX),
            ahead(0, 0),
        ],
    ];
    for ops in &scripts {
        check_calendar(CalendarQueue::new(), DEFAULT_YEAR_SHIFT, ops);
        check_calendar(CalendarQueue::with_geometry(6, 6), TINY_YEAR_SHIFT, ops);
    }
}

/// At either geometry a push fewer than `RUNG_SLOTS` years ahead never
/// touches the heap, and one at that distance or beyond always does.
#[test]
fn only_pushes_past_the_rung_reach_the_heap() {
    for (mut cal, year_shift) in [
        (CalendarQueue::new(), DEFAULT_YEAR_SHIFT),
        (CalendarQueue::with_geometry(6, 6), TINY_YEAR_SHIFT),
    ] {
        let year = 1u64 << year_shift;
        let mut seq = 0u64;
        let mut push = |cal: &mut CalendarQueue, at: u64| {
            seq += 1;
            cal.push((u128::from(at) << 64) | u128::from(seq), 0);
        };
        for years in 0..RUNG_SLOTS as u64 {
            push(&mut cal, years * year + year / 2);
        }
        assert_eq!(cal.heap_pushes(), 0);
        push(&mut cal, RUNG_SLOTS as u64 * year);
        push(&mut cal, u64::MAX);
        assert_eq!(cal.heap_pushes(), 2);
        let mut last = 0u128;
        while let Some((key, _)) = cal.pop() {
            assert!(key > last);
            last = key;
        }
    }
}
