//! Timer-driven scheduled state updates for nodes — the shared
//! mechanism behind every `schedule_update`-style hook of the dynamics
//! subsystem (DESIGN.md §7).
//!
//! A node owns a [`ScheduledUpdates<T>`], fills it before the run,
//! arms it in [`Node::on_start`](crate::Node::on_start), and resolves
//! tokens back to payloads in [`Node::on_timer`](crate::Node::on_timer):
//!
//! ```
//! use netsim::{Ctx, Node, Ns, ScheduledUpdates, Sim};
//!
//! struct Configurable {
//!     limit: u32,
//!     updates: ScheduledUpdates<u32>,
//! }
//! impl Node for Configurable {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         self.updates.arm(ctx);
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
//!         if let Some(&limit) = self.updates.get(token) {
//!             self.limit = limit;
//!         }
//!     }
//! }
//!
//! let mut updates = ScheduledUpdates::new();
//! updates.push(Ns::from_ms(5), 42);
//! let mut sim: Sim = Sim::new(1);
//! let n = sim.add_node("cfg", Box::new(Configurable { limit: 0, updates }));
//! sim.run_until(Ns::from_ms(10));
//! assert_eq!(sim.node_ref::<Configurable>(n).limit, 42);
//! ```

use crate::node::Ctx;
use crate::payload::Payload;
use crate::time::Ns;

/// A list of `(absolute time, payload)` updates delivered to the owning
/// node through its own timers, so every mutation lands in the engine's
/// deterministic `(time, seq)` total order. Tokens are allocated from
/// [`ScheduledUpdates::TOKEN_BASE`] upward; the owning node must keep
/// its other timer tokens below that base (all in-tree nodes use small
/// constants or low bit-flags).
#[derive(Debug, Clone, Default)]
pub struct ScheduledUpdates<T> {
    items: Vec<(Ns, T)>,
}

impl<T> ScheduledUpdates<T> {
    /// The first timer token this mechanism uses; `get` resolves any
    /// `token >= TOKEN_BASE` back to its payload.
    pub const TOKEN_BASE: u64 = 0x6000_0000_0000_0000;

    /// An empty schedule.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Schedule `item` to be delivered at absolute simulation time `at`.
    pub fn push(&mut self, at: Ns, item: T) {
        self.items.push((at, item));
    }

    /// Arm one timer per scheduled item (call from `on_start`, where
    /// `now` is zero and the delay equals the absolute time).
    pub fn arm<P: Payload>(&self, ctx: &mut Ctx<'_, P>) {
        for (i, (at, _)) in self.items.iter().enumerate() {
            ctx.set_timer(*at, Self::TOKEN_BASE + i as u64);
        }
    }

    /// Re-arm the timers for every item still strictly in the future —
    /// the restart-path counterpart of [`ScheduledUpdates::arm`], called
    /// from `on_restart` after a crash dropped the node's pending
    /// timers. Items at or before the restart instant are *not*
    /// replayed: they were either applied before the crash or lost with
    /// it, and the state-loss policy (DESIGN.md §13) treats missed
    /// updates as lost configuration pushes.
    pub fn rearm<P: Payload>(&self, ctx: &mut Ctx<'_, P>) {
        let now = ctx.now();
        for (i, (at, _)) in self.items.iter().enumerate() {
            if *at > now {
                ctx.set_timer(at.saturating_sub(now), Self::TOKEN_BASE + i as u64);
            }
        }
    }

    /// Resolve a timer token back to its payload; `None` for tokens
    /// outside this mechanism's range.
    pub fn get(&self, token: u64) -> Option<&T> {
        let idx = token.checked_sub(Self::TOKEN_BASE)?;
        self.items.get(idx as usize).map(|(_, item)| item)
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip_and_reject_foreign() {
        let mut u = ScheduledUpdates::new();
        assert!(u.is_empty());
        u.push(Ns::from_ms(1), "a");
        u.push(Ns::from_ms(2), "b");
        assert_eq!(u.len(), 2);
        assert_eq!(u.get(ScheduledUpdates::<&str>::TOKEN_BASE), Some(&"a"));
        assert_eq!(u.get(ScheduledUpdates::<&str>::TOKEN_BASE + 1), Some(&"b"));
        assert_eq!(u.get(ScheduledUpdates::<&str>::TOKEN_BASE + 2), None);
        assert_eq!(u.get(0), None);
        assert_eq!(u.get(1), None);
    }
}
